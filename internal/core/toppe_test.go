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
	"repro/internal/store"
	"repro/internal/tech"
)

// TestGenerateTopPEMatchesGeneratePE: on every suite app and for
// k = 0..6, the variant GenerateTopPE builds along the analysis's merge
// chain encodes to the same bytes as GeneratePE's from-scratch build of
// the same picks, whether one analysis is asked for increasing k,
// decreasing k, or every k at once from several goroutines. A call with
// another op set or another tech model than the chain was built for
// falls back to a correct private build and leaves the chain intact.
func TestGenerateTopPEMatchesGeneratePE(t *testing.T) {
	const maxK = 6
	ctx := context.Background()
	fw := core.New()
	all := apps.All()
	if len(all) != 9 {
		t.Fatalf("suite has %d apps, want 9", len(all))
	}
	wider := core.UnionOps(all)
	for _, app := range all {
		an, err := fw.Analyze(ctx, app)
		if err != nil {
			t.Fatal(err)
		}
		scratch := func(fw *core.Framework, ops []ir.Op, name string, k int) []byte {
			v, err := fw.GeneratePE(ctx, name, ops, core.SelectPatterns(an, k))
			if err != nil {
				t.Fatal(err)
			}
			return store.EncodeVariant(v)
		}
		name := func(k int) string { return fmt.Sprintf("%s_top%d", app.Name, k) }
		want := make([][]byte, maxK+1)
		for k := range want {
			want[k] = scratch(fw, app.UsedOps(), name(k), k)
		}
		fresh := func() *core.Analysis { return &core.Analysis{View: an.View, Ranked: an.Ranked} }
		check := func(order string, fw *core.Framework, a *core.Analysis, ops []ir.Op, k int, want []byte) {
			v, err := fw.GenerateTopPE(ctx, name(k), ops, a, k)
			if err != nil {
				t.Errorf("%s, %s order, k=%d: %v", app.Name, order, k, err)
				return
			}
			if !bytes.Equal(store.EncodeVariant(v), want) {
				t.Errorf("%s, %s order, k=%d: variant differs from GeneratePE's", app.Name, order, k)
			}
		}

		inc := fresh()
		for k := 0; k <= maxK; k++ {
			check("increasing", fw, inc, app.UsedOps(), k, want[k])
		}
		dec := fresh()
		for k := maxK; k >= 0; k-- {
			check("decreasing", fw, dec, app.UsedOps(), k, want[k])
		}
		conc := fresh()
		var wg sync.WaitGroup
		for rep := 0; rep < 3; rep++ {
			for k := 0; k <= maxK; k++ {
				wg.Add(1)
				go func(k int) {
					defer wg.Done()
					check("concurrent", fw, conc, app.UsedOps(), k, want[k])
				}(k)
			}
		}
		wg.Wait()

		// The chain of mixed belongs to the first call's op set and tech
		// model; the other two build privately.
		mixed := fresh()
		other := core.New()
		other.Tech = tech.Default()
		check("mixed", fw, mixed, app.UsedOps(), 2, want[2])
		check("mixed, other ops", fw, mixed, wider, maxK, scratch(fw, wider, name(maxK), maxK))
		check("mixed, other tech", other, mixed, app.UsedOps(), maxK, scratch(other, app.UsedOps(), name(maxK), maxK))
		check("mixed", fw, mixed, app.UsedOps(), maxK, want[maxK])
	}
}
