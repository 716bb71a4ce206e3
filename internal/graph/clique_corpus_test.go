package graph

import (
	"bufio"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// cliqueCase is one clique search of the merge corpus.
type cliqueCase struct {
	adj UndirectedAdj
	w   []int64
}

// loadMergeCorpus reads testdata/merge_cliques.txt (format in its
// header).
func loadMergeCorpus(t *testing.T) []cliqueCase {
	t.Helper()
	f, err := os.Open("testdata/merge_cliques.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var lines []string
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if line := sc.Text(); line != "" && !strings.HasPrefix(line, "#") {
			lines = append(lines, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	var cases []cliqueCase
	for len(lines) > 0 {
		n, err := strconv.Atoi(strings.TrimPrefix(lines[0], "graph "))
		if err != nil || len(lines) < 2+n {
			t.Fatalf("bad graph header %q", lines[0])
		}
		c := cliqueCase{adj: make(UndirectedAdj, n), w: make([]int64, n)}
		fields := strings.Fields(lines[1])
		if len(fields) != n {
			t.Fatalf("graph %d: %d weights", n, len(fields))
		}
		for i, s := range fields {
			if c.w[i], err = strconv.ParseInt(s, 10, 64); err != nil {
				t.Fatal(err)
			}
		}
		for v, row := range lines[2 : 2+n] {
			for wi, s := range strings.Split(row, ",") {
				word, err := strconv.ParseUint(s, 16, 64)
				if err != nil {
					t.Fatal(err)
				}
				for u := 0; u < 64; u++ {
					if word&(1<<uint(u)) != 0 {
						c.adj[v] = append(c.adj[v], wi*64+u)
					}
				}
			}
		}
		cases = append(cases, c)
		lines = lines[2+n:]
	}
	return cases
}

// TestMaxWeightCliqueMergeCorpus pins the solver on the compatibility
// graphs of a full suite pass's merges: every graph gets the frozen
// solver's clique, and the corpus as a whole takes at most a tenth of
// its branch steps (a deterministic count, oracle steps included).
func TestMaxWeightCliqueMergeCorpus(t *testing.T) {
	cases := loadMergeCorpus(t)
	if len(cases) == 0 {
		t.Fatal("empty corpus")
	}
	total, legacyTotal := 0, 0
	for i, c := range cases {
		got, gotW, steps, err := maxWeightClique(c.adj, c.w, 0)
		if err != nil {
			t.Fatal(err)
		}
		want, wantW, legacySteps, exhausted := legacyMaxWeightClique(c.adj, float64s(c.w), 0)
		if exhausted {
			t.Fatalf("graph %d: legacy search ran out of budget", i)
		}
		if !reflect.DeepEqual(got, want) || float64(gotW) != wantW {
			t.Fatalf("graph %d (n=%d): got %v (%d), legacy %v (%v)", i, len(c.adj), got, gotW, want, wantW)
		}
		t.Logf("graph %2d: n=%2d  steps %6d  legacy %6d", i, len(c.adj), steps, legacySteps)
		total += steps
		legacyTotal += legacySteps
	}
	t.Logf("%d graphs: %d steps, legacy %d (%.1f%%)", len(cases), total, legacyTotal, 100*float64(total)/float64(legacyTotal))
	if 10*total > legacyTotal {
		t.Fatalf("corpus took %d steps, more than 10%% of the legacy solver's %d", total, legacyTotal)
	}
}
