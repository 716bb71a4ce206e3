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
// fixed-schedule annealer the adaptive one replaced (placer revision 1);
// placeQualityRev2File the suite totals of revision 2.
const (
	placeQualityFile     = "testdata/place_quality.txt"
	placeQualityRev2File = "testdata/place_quality_rev2.txt"
)

// layoutQuality is what the placer is judged by on one netlist.
type layoutQuality struct{ wirelength, hops, sbTiles int }

// readQualityLines calls parse on every line of a frozen-figures file
// that is neither blank nor a comment.
func readQualityLines(t *testing.T, path string, parse func(line string) error) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if err := parse(line); err != nil {
			t.Fatalf("%s: %q: %v", path, line, err)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
}

func readPlaceQuality(t *testing.T) map[string]layoutQuality {
	t.Helper()
	want := map[string]layoutQuality{}
	readQualityLines(t, placeQualityFile, func(line string) error {
		var key string
		var q layoutQuality
		_, err := fmt.Sscan(line, &key, &q.wirelength, &q.hops, &q.sbTiles)
		want[key] = q
		return err
	})
	return want
}

func readPlaceQualityRev2(t *testing.T) layoutQuality {
	t.Helper()
	var q layoutQuality
	readQualityLines(t, placeQualityRev2File, func(line string) error {
		_, err := fmt.Sscan(line, &q.wirelength, &q.hops, &q.sbTiles)
		return err
	})
	return q
}

// TestPlaceQualityNoWorse: one full-PnR suite pass at the automatic move
// budget places and routes its distinct netlists no worse in total than
// the fixed-schedule annealer did at four times the moves, on
// wirelength, routed hops and used switch-box tiles alike, and no
// netlist routes more than 10% worse on hops or switch-box tiles. Its
// totals also stay within 2% of placer revision 2's (at twice the
// moves) on wirelength and hops, and no worse on switch-box tiles.
func TestPlaceQualityNoWorse(t *testing.T) {
	if testing.Short() {
		t.Skip("full PnR suite skipped in -short mode")
	}
	want := readPlaceQuality(t)
	rev2 := readPlaceQualityRev2(t)
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
	t.Logf("against revision 2: wirelength %d -> %d, hops %d -> %d, SB tiles %d -> %d",
		rev2.wirelength, got.wirelength, rev2.hops, got.hops, rev2.sbTiles, got.sbTiles)
	if 100*got.wirelength > 102*rev2.wirelength || 100*got.hops > 102*rev2.hops || got.sbTiles > rev2.sbTiles {
		t.Errorf("suite totals more than 2%% over revision 2's wirelength or hops, or over its SB tiles")
	}
}
