package core_test

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/memo"
	"repro/internal/store"
	"repro/internal/tech"
)

// tableMemo is a core.GenMemo over one memo table, as eval.Harness
// serves it.
type tableMemo struct{ t memo.Table[*core.Generated] }

func (m *tableMemo) Generated(key string, build func() (*core.Generated, error)) (*core.Generated, error) {
	return m.t.Do(context.Background(), key, build)
}

// TestGenerateTopPEMatchesGeneratePE: on every suite app and for
// k = 0..6, a variant GenerateTopPE builds through a shared GenMemo, or
// serves from another name's build, encodes to the same bytes as
// GeneratePE's unshared build of the same picks under its own name —
// whether the memo is asked for increasing k, decreasing k, or every k
// at once from several goroutines. A second name's variants build
// nothing, and a call with another op set or another tech model builds
// its own PE instead of serving another's.
func TestGenerateTopPEMatchesGeneratePE(t *testing.T) {
	const maxK = 6
	ctx := context.Background()
	fw := core.New()
	all := apps.All()
	if len(all) != 9 {
		t.Fatalf("suite has %d apps, want 9", len(all))
	}
	wider := core.UnionOps(all)
	names := []string{"first", "second"}
	for _, app := range all {
		an, err := fw.Analyze(ctx, app)
		if err != nil {
			t.Fatal(err)
		}
		name := func(prefix string, k int) string { return fmt.Sprintf("%s_%s%d", app.Name, prefix, k) }
		scratch := func(fw *core.Framework, ops []ir.Op, name string, k int) []byte {
			v, err := fw.GeneratePE(ctx, name, ops, core.SelectPatterns(an, k))
			if err != nil {
				t.Fatal(err)
			}
			return store.EncodeVariant(v)
		}
		want := map[string][]byte{}
		for _, prefix := range names {
			for k := 0; k <= maxK; k++ {
				want[name(prefix, k)] = scratch(fw, app.UsedOps(), name(prefix, k), k)
			}
		}
		check := func(order string, fw *core.Framework, m core.GenMemo, ops []ir.Op, name string, k int, want []byte) {
			v, err := fw.GenerateTopPE(ctx, m, name, ops, an, k)
			if err != nil {
				t.Errorf("%s order, %s: %v", order, name, err)
				return
			}
			if !bytes.Equal(store.EncodeVariant(v), want) {
				t.Errorf("%s order, %s: variant differs from GeneratePE's", order, name)
			}
		}
		// pass generates every k under one name prefix in the given
		// order and returns the misses it added to m.
		pass := func(order string, m *tableMemo, prefix string, ks []int) int64 {
			before := m.t.Stats().Misses
			for _, k := range ks {
				check(order, fw, m, app.UsedOps(), name(prefix, k), k, want[name(prefix, k)])
			}
			return m.t.Stats().Misses - before
		}
		var inc, dec []int
		for k := 0; k <= maxK; k++ {
			inc = append(inc, k)
			dec = append(dec, maxK-k)
		}

		serial := &tableMemo{}
		builds := pass("increasing", serial, names[0], inc)
		if got := pass("increasing", serial, names[1], inc); got != 0 {
			t.Errorf("%s: a second name's variants ran %d builds; want every one served from the first name's", app.Name, got)
		}
		down := &tableMemo{}
		if got := pass("decreasing", down, names[0], dec); got != builds {
			t.Errorf("%s: decreasing k ran %d builds, increasing %d", app.Name, got, builds)
		}
		if got := pass("decreasing", down, names[1], dec); got != 0 {
			t.Errorf("%s: a second name's variants ran %d builds in decreasing order", app.Name, got)
		}

		conc := &tableMemo{}
		var wg sync.WaitGroup
		for rep := 0; rep < 3; rep++ {
			for _, prefix := range names {
				for k := 0; k <= maxK; k++ {
					wg.Add(1)
					go func(prefix string, k int) {
						defer wg.Done()
						check("concurrent", fw, conc, app.UsedOps(), name(prefix, k), k, want[name(prefix, k)])
					}(prefix, k)
				}
			}
		}
		wg.Wait()
		if got := conc.t.Stats().Misses; got != builds {
			t.Errorf("%s: concurrent calls ran %d builds; want %d, one per distinct key", app.Name, got, builds)
		}

		// Another op set or another tech model is another PE: each
		// builds its own, correctly, and leaves the others served.
		other := core.New()
		other.Tech = tech.Default()
		for _, c := range []struct {
			order string
			fw    *core.Framework
			ops   []ir.Op
		}{
			{"other ops", fw, wider},
			{"other tech", other, app.UsedOps()},
		} {
			before := serial.t.Stats().Misses
			check(c.order, c.fw, serial, c.ops, name(c.order, maxK), maxK, scratch(c.fw, c.ops, name(c.order, maxK), maxK))
			if serial.t.Stats().Misses == before {
				t.Errorf("%s, %s: served another PE's build", app.Name, c.order)
			}
		}
		if got := pass("after mismatches", serial, names[1], inc); got != 0 {
			t.Errorf("%s: a mismatched call disturbed the shared builds (%d new builds)", app.Name, got)
		}
	}
}
