package cgra

import (
	"context"
	"testing"

	"repro/internal/rewrite"
)

func routedSmall(t *testing.T) (*Routing, *Bitstream) {
	t.Helper()
	_, m := smallMapped(t)
	p, err := Place(context.Background(), m, Default(), PlaceOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	r, err := RouteAll(context.Background(), p, RouteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	bs, err := GenerateBitstream(r)
	if err != nil {
		t.Fatal(err)
	}
	return r, bs
}

func TestDecodeRoundTrip(t *testing.T) {
	r, bs := routedSmall(t)
	tiles := bs.Decode()
	if len(tiles) == 0 {
		t.Fatal("decoded no tiles")
	}
	if err := bs.VerifyAgainst(r); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeConstValuesSurvive(t *testing.T) {
	r, bs := routedSmall(t)
	tiles := bs.Decode()
	m := r.Placement.Mapped
	for i := range m.Nodes {
		n := &m.Nodes[i]
		if n.Kind != rewrite.KindPE || len(n.ConstVals) == 0 {
			continue
		}
		dt := tiles[r.Placement.Loc[i]]
		if dt == nil {
			t.Fatalf("PE node %d tile missing from decode", i)
		}
		// Every per-site constant must appear among the tile's const
		// words.
		for _, want := range n.ConstVals {
			found := false
			for _, got := range dt.Consts {
				if got == uint32(want.Val) {
					found = true
				}
			}
			if !found {
				t.Fatalf("PE node %d: constant %d missing from decoded tile", i, want.Val)
			}
		}
	}
}

func TestDecodeIOAndMemModes(t *testing.T) {
	r, bs := routedSmall(t)
	tiles := bs.Decode()
	m := r.Placement.Mapped
	ios, mems := 0, 0
	for i := range m.Nodes {
		switch m.Nodes[i].Kind {
		case rewrite.KindInput, rewrite.KindInputB, rewrite.KindOutput:
			dt := tiles[r.Placement.Loc[i]]
			if dt == nil || len(dt.IOMode) == 0 {
				t.Fatalf("IO node %d has no mode word", i)
			}
			ios++
		case rewrite.KindMem, rewrite.KindRom:
			dt := tiles[r.Placement.Loc[i]]
			if dt == nil || len(dt.MemMode) == 0 {
				t.Fatalf("mem node %d has no mode word", i)
			}
			mems++
		}
	}
	if ios == 0 {
		t.Error("no IO modes checked")
	}
}

func TestVerifyCatchesTampering(t *testing.T) {
	r, bs := routedSmall(t)
	// Drop all SB words: verification must notice.
	var kept []Word
	for _, w := range bs.Words {
		if int(w.Addr>>8&0xf) != featSB {
			kept = append(kept, w)
		}
	}
	tampered := &Bitstream{Words: kept}
	if err := tampered.VerifyAgainst(r); err == nil {
		t.Fatal("verification accepted a bitstream with no switch settings")
	}
}
