package eval

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
)

// placeQualityFile holds the frozen per-netlist figures of the
// fixed-schedule annealer the adaptive one replaced.
const placeQualityFile = "testdata/place_quality.txt"

// layoutQuality is what the placer is judged by on one netlist.
type layoutQuality struct{ wirelength, hops, sbTiles int }

func readPlaceQuality(t *testing.T) map[string]layoutQuality {
	t.Helper()
	f, err := os.Open(placeQualityFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]layoutQuality{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var key string
		var q layoutQuality
		if _, err := fmt.Sscan(line, &key, &q.wirelength, &q.hops, &q.sbTiles); err != nil {
			t.Fatalf("%s: %q: %v", placeQualityFile, line, err)
		}
		want[key] = q
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestPlaceQualityNoWorse: one full-PnR suite pass at the automatic move
// budget places and routes its distinct netlists no worse in total than
// the fixed-schedule annealer did at twice the moves, on wirelength,
// routed hops and used switch-box tiles alike, and no netlist routes
// more than 10% worse on hops or switch-box tiles.
func TestPlaceQualityNoWorse(t *testing.T) {
	if testing.Short() {
		t.Skip("full PnR suite skipped in -short mode")
	}
	want := readPlaceQuality(t)
	h := NewHarness()
	h.Workers = 1
	if _, err := h.Suite(context.Background(), true); err != nil {
		t.Fatal(err)
	}
	var old, got layoutQuality
	seen := 0
	h.layouts.Each(func(key string, l *core.Layout, err error) {
		if err != nil {
			t.Fatalf("layout %.12s: %v", key, err)
		}
		w, ok := want[key]
		if !ok {
			t.Errorf("layout %.12s has no frozen figures", key)
			return
		}
		r := l.Routing()
		if r == nil {
			t.Errorf("layout %.12s degraded", key)
			return
		}
		seen++
		q := layoutQuality{r.Placement.Wirelength(), r.TotalHops(), r.UsedSBTiles()}
		t.Logf("%.12s wirelength %5d -> %5d  hops %5d -> %5d  SB tiles %4d -> %4d",
			key, w.wirelength, q.wirelength, w.hops, q.hops, w.sbTiles, q.sbTiles)
		for _, c := range []struct {
			what    string
			was, is int
		}{{"routed hops", w.hops, q.hops}, {"used SB tiles", w.sbTiles, q.sbTiles}} {
			if 10*c.is > 11*c.was {
				t.Errorf("layout %.12s: %s %d, more than 10%% over the frozen %d", key, c.what, c.is, c.was)
			}
		}
		old.wirelength += w.wirelength
		old.hops += w.hops
		old.sbTiles += w.sbTiles
		got.wirelength += q.wirelength
		got.hops += q.hops
		got.sbTiles += q.sbTiles
	})
	if seen != len(want) {
		t.Errorf("%d routed layouts, %d frozen", seen, len(want))
	}
	t.Logf("totals: wirelength %d -> %d, hops %d -> %d, SB tiles %d -> %d",
		old.wirelength, got.wirelength, old.hops, got.hops, old.sbTiles, got.sbTiles)
	if got.wirelength > old.wirelength || got.hops > old.hops || got.sbTiles > old.sbTiles {
		t.Errorf("suite totals worse than the frozen annealer's")
	}
}
