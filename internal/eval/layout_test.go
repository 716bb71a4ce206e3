package eval

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/cgra"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/store"
)

// placementDigestFile pins the physical outcome of every place-and-route
// cell of one full suite pass: a change to the annealer, the router, or
// the way evaluations share layouts must reproduce every placement and
// every route path exactly, or this digest moves.
const placementDigestFile = "testdata/placement.sha256"

// placementDigest hashes, in cell-key order, each PnR cell's ladder
// outcome, node locations, and routed paths.
func placementDigest(t *testing.T, h *Harness) string {
	t.Helper()
	sum := sha256.New()
	h.results.Each(func(k string, r *core.Result, err error) {
		if !strings.Contains(k, "|true|") {
			return
		}
		if err != nil {
			t.Fatalf("cell %s: %v", k, err)
		}
		fmt.Fprintf(sum, "%s attempts=%d degraded=%q\n", k, r.PnRAttempts, r.DegradedReason)
		if r.Routing == nil {
			return
		}
		fmt.Fprintf(sum, "loc %v\n", r.Routing.Placement.Loc)
		for _, rt := range r.Routing.Routes {
			fmt.Fprintf(sum, "net %d %d %v %v\n", rt.Net.Src, rt.Net.Dst, rt.Net.Bit, rt.Path)
		}
	})
	return hex.EncodeToString(sum.Sum(nil))
}

// checkPlacementDigest compares a finished full-PnR suite's digest with
// the pinned one.
func checkPlacementDigest(t *testing.T, h *Harness) {
	t.Helper()
	got := placementDigest(t, h)
	raw, err := os.ReadFile(placementDigestFile)
	if err != nil {
		t.Fatal(err)
	}
	if want := strings.TrimSpace(string(raw)); got != want {
		t.Errorf("placement digest moved:\n got %s\nwant %s\n(replace %s only after an intentional placement change)", got, want, placementDigestFile)
	}
}

// bitstreamDigestFile pins the configuration bytes of every place-and-
// route cell of one full suite pass: a change to bitstream generation
// (or to anything upstream of it) must reproduce every word exactly, or
// this digest moves.
const bitstreamDigestFile = "testdata/bitstream.sha256"

// bitstreamDigest hashes, in cell-key order, the words
// cgra.GenerateBitstream emits for each routed PnR cell.
func bitstreamDigest(t *testing.T, h *Harness) string {
	t.Helper()
	sum := sha256.New()
	var buf []byte
	h.results.Each(func(k string, r *core.Result, err error) {
		if !strings.Contains(k, "|true|") {
			return
		}
		if err != nil {
			t.Fatalf("cell %s: %v", k, err)
		}
		fmt.Fprintf(sum, "%s\n", k)
		if r.Routing == nil {
			return
		}
		bs, err := cgra.GenerateBitstream(r.Routing)
		if err != nil {
			t.Fatalf("cell %s: %v", k, err)
		}
		buf = buf[:0]
		for _, w := range bs.Words {
			buf = binary.LittleEndian.AppendUint32(buf, w.Addr)
			buf = binary.LittleEndian.AppendUint32(buf, w.Data)
		}
		sum.Write(buf)
	})
	return hex.EncodeToString(sum.Sum(nil))
}

// checkBitstreamDigest compares a finished full-PnR suite's bitstream
// digest with the pinned one and, on a mismatch, prints the replacement
// line.
func checkBitstreamDigest(t *testing.T, h *Harness) {
	t.Helper()
	got := bitstreamDigest(t, h)
	raw, err := os.ReadFile(bitstreamDigestFile)
	if err != nil {
		t.Fatal(err)
	}
	if want := strings.TrimSpace(string(raw)); got != want {
		t.Errorf("bitstream digest moved:\n got %s\nwant %s\n(replace %s only after an intentional bitstream change; its new line is:\n%s)", got, want, bitstreamDigestFile, got)
	}
}

// TestPlacementDigestPinned: one serial full-PnR suite pass places and
// routes every cell exactly as the pinned digest records, configures
// every cell with exactly the pinned bitstream words, and places
// each distinct physical netlist once: its 34 PnR cells share 24
// layouts (camera on camera_pe2, camera_pe3 and pe_ip is one netlist,
// resnet on baseline, pe_ml and spec_resnet another).
func TestPlacementDigestPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("full PnR suite skipped in -short mode")
	}
	h := NewHarness()
	h.Workers = 1
	if _, err := h.Suite(context.Background(), true); err != nil {
		t.Fatal(err)
	}
	checkPlacementDigest(t, h)
	checkBitstreamDigest(t, h)
	if s := h.MemoStats()["layouts"]; s.Lookups() != 34 || s.Misses != 24 {
		t.Errorf("layout memo: %d lookups, %d misses; want 34 lookups, 24 misses", s.Lookups(), s.Misses)
	}
}

// TestFullPnRObsDeterminism: with the layout memo live, which cell of a
// shared netlist places it depends on scheduling, but the span tree and
// the invariant metrics of a full-PnR suite must not: they are equal at
// one and eight workers, and so is every placement and bitstream.
func TestFullPnRObsDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full PnR suite skipped in -short mode")
	}
	_, tree1, metrics1 := obsSuiteRun(t, 1, true)
	h8, tree8, metrics8 := obsSuiteRun(t, 8, true)
	if tree1 != tree8 {
		t.Errorf("span trees differ between workers=1 and workers=8:\n--- workers=1\n%s\n--- workers=8\n%s", tree1, tree8)
	}
	if metrics1 != metrics8 {
		t.Errorf("metrics differ between workers=1 and workers=8:\n--- workers=1\n%s\n--- workers=8\n%s", metrics1, metrics8)
	}
	for _, want := range []string{"counter memo.layouts.miss", "counter span.place", "counter pnr.attempts"} {
		if !strings.Contains(metrics1, want) {
			t.Errorf("metrics dump missing %q", want)
		}
	}
	checkPlacementDigest(t, h8)
	checkBitstreamDigest(t, h8)
}

// TestLayoutMemoHitRebinds: camera on camera_pe3 reuses the layout
// camera on camera_pe2 built, yet its routing carries its own PE
// configurations — its bitstream equals that of a memo-less evaluation
// of the same cell, differs from the builder's, and decodes back to its
// own design.
func TestLayoutMemoHitRebinds(t *testing.T) {
	ctx := context.Background()
	h := NewHarness()
	app := apps.Camera()
	pe2, err := h.LadderPE(app, 2)
	if err != nil {
		t.Fatal(err)
	}
	pe3, err := h.LadderPE(app, 3)
	if err != nil {
		t.Fatal(err)
	}
	built, err := h.Evaluate(ctx, app, pe2, true, true)
	if err != nil {
		t.Fatal(err)
	}
	hit, err := h.Evaluate(ctx, app, pe3, true, true)
	if err != nil {
		t.Fatal(err)
	}
	if s := h.MemoStats()["layouts"]; s.Misses != 1 || s.Hits != 1 {
		t.Fatalf("layout memo %+v, want one miss then one hit", s)
	}
	fresh, err := h.FW.Evaluate(ctx, app, pe3, core.FullEval)
	if err != nil {
		t.Fatal(err)
	}
	if hit.Routing.Placement.Mapped != hit.Balanced {
		t.Error("hit routing is not bound to the cell's own balanced design")
	}
	bitstream := func(r *core.Result) *cgra.Bitstream {
		t.Helper()
		bs, err := cgra.GenerateBitstream(r.Routing)
		if err != nil {
			t.Fatal(err)
		}
		return bs
	}
	hitBS, freshBS, builtBS := bitstream(hit), bitstream(fresh), bitstream(built)
	if !reflect.DeepEqual(hitBS, freshBS) {
		t.Error("hit cell's bitstream differs from a memo-less evaluation's")
	}
	if reflect.DeepEqual(hitBS, builtBS) {
		t.Error("hit cell's bitstream equals the building cell's: the PE configurations were not rebound")
	}
	if err := hitBS.VerifyAgainst(hit.Routing); err != nil {
		t.Errorf("hit cell's bitstream does not decode to its design: %v", err)
	}
	if hit.RoutingTiles != fresh.RoutingTiles || hit.TotalArea != fresh.TotalArea || hit.TotalEnergy != fresh.TotalEnergy {
		t.Error("hit cell's metrics differ from a memo-less evaluation's")
	}
}

// TestLayoutMemoDropsCanceledBuild: a layout build stopped by its own
// cell's cancellation is neither served to a sibling that was waiting
// on it nor kept for later lookups.
func TestLayoutMemoDropsCanceledBuild(t *testing.T) {
	h := NewHarness()
	memo := evalMemo{h}
	started, release := make(chan struct{}), make(chan struct{})
	ctxA, cancelA := context.WithCancel(context.Background())
	defer cancelA()
	errA := make(chan error, 1)
	go func() {
		_, err := memo.Layout(ctxA, "k", func(ctx context.Context) (*core.Layout, error) {
			close(started)
			<-release
			return nil, fault.Canceled(ctx)
		})
		errA <- err
	}()
	<-started
	want := &core.Layout{}
	resB := make(chan error, 1)
	go func() {
		lay, err := memo.Layout(context.Background(), "k", func(context.Context) (*core.Layout, error) { return want, nil })
		if err == nil && lay != want {
			err = fmt.Errorf("sibling got layout %p, want its own build %p", lay, want)
		}
		resB <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the sibling join the build in flight
	cancelA()
	close(release)
	if err := <-errA; !errors.Is(err, fault.ErrCanceled) {
		t.Fatalf("canceled builder: err = %v, want ErrCanceled", err)
	}
	select {
	case err := <-resB:
		if err != nil {
			t.Fatalf("sibling: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("sibling still waiting on a canceled build")
	}
	lay, err := memo.Layout(context.Background(), "k", func(context.Context) (*core.Layout, error) {
		return nil, errors.New("rebuilt a memoized layout")
	})
	if err != nil || lay != want {
		t.Fatalf("later lookup: %p, %v; want the sibling's layout", lay, err)
	}
	if s := h.MemoStats()["layouts"]; s.Misses != 2 || s.Lookups() != 3 {
		t.Errorf("layout memo %+v, want 2 misses in 3 lookups", s)
	}
}

// TestDesignMemo: one serial full-PnR suite pass maps each distinct
// (app, variant) pair once and balances each distinct (app, variant, PE
// latency) once — 38 mappings and 50 balances for its 68 cells — and
// cells of one pair share one mapped design. Every cell's Result encodes
// byte-identically to a memo-less evaluation of the same cell.
func TestDesignMemo(t *testing.T) {
	if testing.Short() {
		t.Skip("full PnR suite skipped in -short mode")
	}
	ctx := context.Background()
	h := NewHarness()
	h.Workers = 1
	if _, err := h.Suite(ctx, true); err != nil {
		t.Fatal(err)
	}
	type cell struct {
		app       *apps.App
		v         *core.PEVariant
		pnr, pipe bool
		r         *core.Result
	}
	var cells []cell
	maps := map[string]*core.Result{}
	balances := map[string]bool{}
	variants := map[string]*core.PEVariant{}
	h.variants.Each(func(name string, v *core.PEVariant, _ error) { variants[name] = v })
	h.results.Each(func(key string, r *core.Result, err error) {
		if err != nil {
			t.Fatalf("cell %s: %v", key, err)
		}
		f := strings.Split(key, "|")
		app, err := apps.ByName(f[0])
		if err != nil {
			t.Fatal(err)
		}
		c := cell{app: app, v: variants[f[1]], pnr: f[2] == "true", pipe: f[3] == "true", r: r}
		cells = append(cells, c)
		pair := f[0] + "|" + f[1]
		if first, ok := maps[pair]; ok && first.Mapped != c.r.Mapped {
			t.Errorf("cells of %s do not share one mapped design", pair)
		}
		maps[pair] = c.r
		balances[fmt.Sprintf("%s|%d", pair, c.r.PELatency)] = true
	})
	if len(cells) != 68 || len(maps) != 38 || len(balances) != 50 {
		t.Errorf("suite has %d cells, %d (app, variant) pairs and %d balances; want 68, 38 and 50", len(cells), len(maps), len(balances))
	}
	if s := h.MemoStats()["designs"]; s.Misses != int64(len(maps)+len(balances)) || s.Lookups() != int64(2*len(cells)) {
		t.Errorf("design memo: %d lookups, %d misses; want %d lookups, %d misses", s.Lookups(), s.Misses, 2*len(cells), len(maps)+len(balances))
	}
	for _, c := range cells {
		fresh, err := h.FW.Evaluate(ctx, c.app, c.v, core.EvalOptions{PnR: c.pnr, Pipelined: c.pipe})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(store.EncodeResult(c.r), store.EncodeResult(fresh)) {
			t.Errorf("%s on %s (pnr=%v pipelined=%v): result differs from a memo-less evaluation", c.app.Name, c.v.Name, c.pnr, c.pipe)
		}
	}
}
