package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/store"
)

// saveJournal is a one-shot save through a fresh handle: the full
// read-parse-merge path, then the streamed write.
func saveJournal(path string, jobs map[string]*Job) error {
	jl := newJournal(path)
	defer jl.release()
	all := make([]*Job, 0, len(jobs))
	for _, j := range jobs {
		all = append(all, j)
	}
	return jl.save(all...)
}

// referenceSaveJournal is the journal writer the cached handle replaced:
// read the whole file, parse it, Seq-wins merge, cap the terminal jobs,
// and marshal the whole snapshot. TestJournalMatchesReference holds the
// handle to its bytes.
func referenceSaveJournal(path string, jobs map[string]*Job) error {
	return store.UpdateFile(path, func(cur []byte) ([]byte, error) {
		merged, err := parseJournal(cur)
		if err != nil {
			merged = map[string]*Job{}
		}
		for id, j := range jobs {
			if old, ok := merged[id]; ok && old.Seq >= j.Seq {
				continue
			}
			merged[id] = j
		}

		jf := journalFile{Version: journalVersion}
		var terminal []*Job
		for _, j := range merged {
			if j.State.terminal() {
				terminal = append(terminal, j)
			} else {
				jf.Jobs = append(jf.Jobs, j)
			}
		}
		sort.Slice(terminal, func(i, k int) bool {
			if !terminal[i].Finished.Equal(terminal[k].Finished) {
				return terminal[i].Finished.After(terminal[k].Finished)
			}
			return terminal[i].ID < terminal[k].ID
		})
		if len(terminal) > journalKeepTerminal {
			terminal = terminal[:journalKeepTerminal]
		}
		jf.Jobs = append(jf.Jobs, terminal...)
		sort.Slice(jf.Jobs, func(i, k int) bool { return jf.Jobs[i].ID < jf.Jobs[k].ID })
		return json.Marshal(&jf)
	})
}

// journalGen draws random journal records over a fixed ID pool,
// tracking each ID's newest Seq so it can draw winning and stale
// generations alike.
type journalGen struct {
	rng  *rand.Rand
	seqs map[string]int64
}

const journalGenPool = 2000

func (g *journalGen) job(id string) *Job {
	seq := g.seqs[id] + 1
	if g.seqs[id] > 0 && g.rng.Intn(5) == 0 {
		seq = 1 + g.rng.Int63n(g.seqs[id]) // stale or tied: must lose
	} else {
		g.seqs[id] = seq
	}
	// The last client reaches the server as a raw header value that is
	// not valid UTF-8.
	clients := []string{"c0", "c1", "c\xff\xfe"}
	client := clientID(&http.Request{Header: http.Header{"X-Apex-Client": {clients[g.rng.Intn(len(clients))]}}}, "")
	states := []State{StateQueued, StateRunning, StateDone, StateDone, StateDone, StateFailed, StateCanceled}
	j := &Job{ID: id, Seq: seq, Client: client, Kind: KindCompile,
		Params:  Params{K: g.rng.Intn(4), Source: fmt.Sprintf("out = a + %d", g.rng.Intn(100))},
		State:   states[g.rng.Intn(len(states))],
		Created: time.Unix(1700000000, 0).UTC()}
	if j.State.terminal() {
		// A narrow window, so equal Finished times exercise the ID
		// tie-break of the cap.
		j.Finished = time.Unix(1700000000+g.rng.Int63n(300), 0).UTC()
	}
	if j.State == StateDone {
		// Spaced and HTML-significant, so both writers' compaction and
		// escaping of the embedded result are compared too.
		j.Result = json.RawMessage(fmt.Sprintf(`{"n": %d, "s": "<%d>&"}`, g.rng.Intn(1000), seq))
	}
	return j
}

// batch draws n jobs with distinct IDs.
func (g *journalGen) batch(n int) map[string]*Job {
	out := map[string]*Job{}
	for len(out) < n {
		id := fmt.Sprintf("j-%05d", g.rng.Intn(journalGenPool))
		if _, dup := out[id]; !dup {
			out[id] = g.job(id)
		}
	}
	return out
}

func jobList(m map[string]*Job) []*Job {
	out := make([]*Job, 0, len(m))
	for _, j := range m {
		out = append(out, j)
	}
	return out
}

// TestJournalMatchesReference drives randomized save sequences through
// the cached handle and the reference writer, one file each, and
// requires byte-identical files after every step: winning and stale
// Seqs, terminal-cap overflow, pending jobs, a second handle writing the
// same file (a daemon handover), a fresh handle (a restart), a corrupt
// file and a deleted one.
func TestJournalMatchesReference(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			dir := t.TempDir()
			got, want := filepath.Join(dir, "got.json"), filepath.Join(dir, "want.json")
			g := &journalGen{rng: rand.New(rand.NewSource(seed)), seqs: map[string]int64{}}
			h, other := newJournal(got), newJournal(got)
			defer func() { h.release(); other.release() }()
			capped := false
			for step := 0; step < 120; step++ {
				var what string
				var herr, rerr error
				switch r := g.rng.Intn(100); {
				case step%40 == 0:
					what = "overflowing save"
					jobs := g.batch(1800)
					herr, rerr = h.save(jobList(jobs)...), referenceSaveJournal(want, jobs)
				case r < 55:
					what = "save"
					jobs := g.batch(1 + g.rng.Intn(3))
					herr, rerr = h.save(jobList(jobs)...), referenceSaveJournal(want, jobs)
				case r < 65:
					what = "bulk save"
					jobs := g.batch(900)
					herr, rerr = h.save(jobList(jobs)...), referenceSaveJournal(want, jobs)
				case r < 78:
					what = "second handle"
					jobs := g.batch(1 + g.rng.Intn(3))
					herr, rerr = other.save(jobList(jobs)...), referenceSaveJournal(want, jobs)
				case r < 83:
					what = "corrupt file"
					garbage := []byte(fmt.Sprintf(`{"version":1,"jobs":[{"id":%d`, step))
					herr, rerr = os.WriteFile(got, garbage, 0o644), os.WriteFile(want, garbage, 0o644)
				case r < 86:
					what = "delete file"
					herr, rerr = os.Remove(got), os.Remove(want)
					if os.IsNotExist(herr) && os.IsNotExist(rerr) {
						herr, rerr = nil, nil
					}
				case r < 90:
					what = "restart"
					h.release()
					h = newJournal(got)
				default:
					what = "empty flush"
					herr, rerr = h.save(), referenceSaveJournal(want, nil)
				}
				if herr != nil || rerr != nil {
					t.Fatalf("step %d (%s): handle err %v, reference err %v", step, what, herr, rerr)
				}
				a, aerr := os.ReadFile(got)
				b, berr := os.ReadFile(want)
				if os.IsNotExist(aerr) != os.IsNotExist(berr) || !bytes.Equal(a, b) {
					t.Fatalf("step %d (%s): journal bytes differ from the reference\nhandle:    %.300s\nreference: %.300s", step, what, a, b)
				}
				if jobs, err := parseJournal(a); err == nil {
					terminal := 0
					for _, j := range jobs {
						if j.State.terminal() {
							terminal++
						}
					}
					capped = capped || terminal == journalKeepTerminal
				}
			}
			if !capped {
				t.Fatal("the sequence never reached the terminal cap")
			}
		})
	}
}

// TestJournalReparses is the structural guard on the cached writer:
// saves from one handle never re-read the file they installed, and one
// write by another handle costs exactly one full re-parse.
func TestJournalReparses(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.json")
	g := &journalGen{rng: rand.New(rand.NewSource(1)), seqs: map[string]int64{}}
	h := newJournal(path)
	defer h.release()
	for i := 0; i < 50; i++ {
		if err := h.save(jobList(g.batch(2))...); err != nil {
			t.Fatal(err)
		}
	}
	if h.reparses != 0 {
		t.Fatalf("50 steady-state saves re-parsed the journal %d times, want 0", h.reparses)
	}

	other := newJournal(path)
	defer other.release()
	if err := other.save(jobList(g.batch(1))...); err != nil {
		t.Fatal(err)
	}
	if other.reparses != 1 {
		t.Fatalf("a fresh handle over an existing journal re-parsed %d times, want 1", other.reparses)
	}
	for i := 0; i < 20; i++ {
		if err := h.save(jobList(g.batch(1))...); err != nil {
			t.Fatal(err)
		}
	}
	if h.reparses != 1 {
		t.Fatalf("one foreign write cost %d re-parses, want 1", h.reparses)
	}
}

// TestJournalConcurrentSaves: goroutines saving through one handle and
// through a second handle on the same file never lose a generation —
// every job ends on disk at the newest Seq any writer saved.
func TestJournalConcurrentSaves(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.json")
	h, other := newJournal(path), newJournal(path)
	defer func() { h.release(); other.release() }()
	const writers, jobs, gens = 6, 4, 5
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		jl := h
		if w%3 == 2 {
			jl = other
		}
		wg.Add(1)
		go func(w int, jl *journal) {
			defer wg.Done()
			for seq := int64(1); seq <= gens; seq++ {
				for k := 0; k < jobs; k++ {
					id := fmt.Sprintf("j-%d-%d", w, k)
					if err := jl.save(&Job{ID: id, Seq: seq, State: StateQueued}); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w, jl)
	}
	wg.Wait()
	got, err := loadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != writers*jobs {
		t.Fatalf("journal holds %d jobs, want %d", len(got), writers*jobs)
	}
	for id, j := range got {
		if j.Seq != gens {
			t.Fatalf("job %s on disk at Seq %d, want %d", id, j.Seq, gens)
		}
	}
}

// TestJobTableBoundedToJournalRetention: past journalKeepTerminal
// terminal jobs the daemon's job table drops the oldest, exactly as the
// journal does, so the table holds what a restart would reload; pending
// jobs stay, and a GET of an evicted job is a 404.
func TestJobTableBoundedToJournalRetention(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.json")
	srv, ts := newTestServer(t, Config{JournalPath: path})
	tick := time.Unix(1700000000, 0)
	srv.now = func() time.Time {
		tick = tick.Add(time.Second)
		return tick
	}
	add := func() *Job {
		j := srv.newJob("c", KindAnalyze, Params{App: "gaussian"})
		srv.mu.Lock()
		srv.jobs[j.ID] = j
		srv.order = append(srv.order, j.ID)
		srv.mu.Unlock()
		return j
	}
	pending := add()
	srv.journal(pending)
	var finished []*Job
	for i := 0; i < journalKeepTerminal+5; i++ {
		j := add()
		srv.finish(j, func() { j.State = StateDone })
		finished = append(finished, j)
	}

	if n := len(srv.Jobs()); n != journalKeepTerminal+1 {
		t.Fatalf("job table holds %d jobs, want %d", n, journalKeepTerminal+1)
	}
	onDisk, err := loadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range srv.Jobs() {
		if _, ok := onDisk[j.ID]; !ok {
			t.Fatalf("job %s is in the table but not in the journal", j.ID)
		}
	}
	if len(onDisk) != journalKeepTerminal+1 {
		t.Fatalf("journal holds %d jobs, want %d", len(onDisk), journalKeepTerminal+1)
	}

	status := func(id string) int {
		resp, err := http.Get(ts.URL + "/api/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if c := status(pending.ID); c != http.StatusOK {
		t.Fatalf("GET pending job = %d, want 200", c)
	}
	if c := status(finished[4].ID); c != http.StatusNotFound {
		t.Fatalf("GET evicted job = %d, want 404", c)
	}
	if c := status(finished[5].ID); c != http.StatusOK {
		t.Fatalf("GET oldest retained job = %d, want 200", c)
	}
}
