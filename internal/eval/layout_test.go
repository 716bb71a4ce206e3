package eval

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/cgra"
	"repro/internal/core"
	"repro/internal/fault"
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
	h.results.mu.Lock()
	keys := make([]string, 0, len(h.results.entries))
	for k := range h.results.entries {
		if strings.Contains(k, "|true|") {
			keys = append(keys, k)
		}
	}
	h.results.mu.Unlock()
	sort.Strings(keys)
	sum := sha256.New()
	for _, k := range keys {
		e := h.results.entries[k]
		<-e.done
		if e.err != nil {
			t.Fatalf("cell %s: %v", k, e.err)
		}
		r := e.val
		fmt.Fprintf(sum, "%s attempts=%d degraded=%q\n", k, r.PnRAttempts, r.DegradedReason)
		if r.Routing == nil {
			continue
		}
		fmt.Fprintf(sum, "loc %v\n", r.Routing.Placement.Loc)
		for _, rt := range r.Routing.Routes {
			fmt.Fprintf(sum, "net %d %d %v %v\n", rt.Net.Src, rt.Net.Dst, rt.Net.Bit, rt.Path)
		}
	}
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
	h.results.mu.Lock()
	keys := make([]string, 0, len(h.results.entries))
	for k := range h.results.entries {
		if strings.Contains(k, "|true|") {
			keys = append(keys, k)
		}
	}
	h.results.mu.Unlock()
	sort.Strings(keys)
	sum := sha256.New()
	var buf []byte
	for _, k := range keys {
		e := h.results.entries[k]
		<-e.done
		if e.err != nil {
			t.Fatalf("cell %s: %v", k, e.err)
		}
		fmt.Fprintf(sum, "%s\n", k)
		if e.val.Routing == nil {
			continue
		}
		bs, err := cgra.GenerateBitstream(e.val.Routing)
		if err != nil {
			t.Fatalf("cell %s: %v", k, err)
		}
		buf = buf[:0]
		for _, w := range bs.Words {
			buf = binary.LittleEndian.AppendUint32(buf, w.Addr)
			buf = binary.LittleEndian.AppendUint32(buf, w.Data)
		}
		sum.Write(buf)
	}
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
	memo := layoutMemo{h}
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
