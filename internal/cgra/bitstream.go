package cgra

import (
	"fmt"
	"sort"

	"repro/internal/merge"
	"repro/internal/rewrite"
)

// Word is one configuration word: a register address within the fabric's
// configuration space and its value.
type Word struct {
	Addr uint32
	Data uint32
}

// Bitstream is the static configuration of the fabric for one
// application: PE instruction/operand-select/constant registers, switch
// box track switches, and connection box input selects.
type Bitstream struct {
	Words []Word
	// TrackOf assigns each routed hop a track index (per net, per hop).
	TrackOf map[[3]int]int // (route idx, hop idx, 0) -> track
}

// Feature codes within a tile's configuration address space.
const (
	featPEOp    = 0x0
	featPEMux   = 0x1
	featPEConst = 0x2
	featSB      = 0x4
	featCB      = 0x5
	featMemMode = 0x6
	featIOMode  = 0x7
)

func tileAddr(c Coord, feature, index int) uint32 {
	// Ring sites use offset-by-one coordinates so -1 encodes as 0.
	return uint32(c.Y+1)<<20 | uint32(c.X+1)<<12 | uint32(feature)<<8 | uint32(index)
}

// GenerateBitstream encodes the routed design into configuration words.
// Track assignment is greedy per directed edge in route order; capacity
// was already guaranteed by the router.
func GenerateBitstream(r *Routing) (*Bitstream, error) {
	bs := &Bitstream{TrackOf: map[[3]int]int{}}
	m := r.Placement.Mapped

	// --- PE, memory, and IO tile configuration.
	for i := range m.Nodes {
		n := &m.Nodes[i]
		c := r.Placement.Loc[i]
		switch n.Kind {
		case rewrite.KindPE:
			spec := n.Rule.Spec
			// Operation selects, in FU order.
			opWord := uint32(0)
			for fi, fu := range spec.FUs {
				if op, ok := n.Rule.Config.OpSel[fu]; ok {
					opWord |= uint32(opIndex(&spec.DP.Units[fu], op)) << (uint(fi%8) * 4)
				}
				if fi%8 == 7 || fi == len(spec.FUs)-1 {
					bs.Words = append(bs.Words, Word{tileAddr(c, featPEOp, fi/8), opWord})
					opWord = 0
				}
			}
			// Mux selects: every configured (unit, port).
			keys := make([][2]int, 0, len(n.Rule.Config.PortSel))
			for k := range n.Rule.Config.PortSel {
				keys = append(keys, k)
			}
			for k := range n.Rule.Config.OutSel {
				keys = append(keys, [2]int{k, -1})
			}
			sort.Slice(keys, func(a, b int) bool {
				if keys[a][0] != keys[b][0] {
					return keys[a][0] < keys[b][0]
				}
				return keys[a][1] < keys[b][1]
			})
			for mi, k := range keys {
				var src int
				if k[1] < 0 {
					src = n.Rule.Config.OutSel[k[0]]
				} else {
					src = n.Rule.Config.PortSel[k]
				}
				sel := sourceIndex(spec, k[0], maxInt(k[1], 0), src)
				if sel < 0 {
					return nil, fmt.Errorf("cgra: node %d: no wire %d -> (%d,%d)", i, src, k[0], k[1])
				}
				bs.Words = append(bs.Words, Word{tileAddr(c, featPEMux, mi), uint32(sel)})
			}
			// Constant registers and LUT tables, in unit order (both
			// lists are sorted by unit: merge them).
			cv, lt := n.ConstVals, n.LUTTables
			for ci := 0; len(cv)+len(lt) > 0; ci++ {
				var v uint16
				if len(lt) == 0 || len(cv) > 0 && cv[0].Unit <= lt[0].Unit {
					v, cv = cv[0].Val, cv[1:]
				} else {
					v, lt = lt[0].Val, lt[1:]
				}
				bs.Words = append(bs.Words, Word{tileAddr(c, featPEConst, ci), uint32(v)})
			}
		case rewrite.KindMem, rewrite.KindRom:
			bs.Words = append(bs.Words, Word{tileAddr(c, featMemMode, 0), uint32(n.Kind)})
		case rewrite.KindRegFile:
			bs.Words = append(bs.Words, Word{tileAddr(c, featMemMode, 1), uint32(n.Depth)})
		case rewrite.KindInput, rewrite.KindInputB, rewrite.KindOutput:
			bs.Words = append(bs.Words, Word{tileAddr(c, featIOMode, 0), uint32(n.Kind)})
			if n.Kind == rewrite.KindOutput && n.Arg < 0 {
				// A constant-driven output carries its value.
				bs.Words = append(bs.Words, Word{tileAddr(c, featIOMode, 1), uint32(n.Val)})
			}
		}
	}

	// --- Switch box configuration: one track per (edge, source signal)
	// within each track-width plane; fanout sinks of the same source
	// reuse the source's track.
	type plane struct {
		trackBySrc map[[2]Coord]map[int]int
		nextTrack  map[[2]Coord]int
	}
	planes := [2]plane{
		{map[[2]Coord]map[int]int{}, map[[2]Coord]int{}},
		{map[[2]Coord]map[int]int{}, map[[2]Coord]int{}},
	}
	for ri, rt := range r.Routes {
		pl := &planes[0]
		capacity := r.Placement.Fabric.Tracks16
		if rt.Net.Bit {
			pl = &planes[1]
			capacity = r.Placement.Fabric.Tracks1
		}
		for hi := 0; hi+1 < len(rt.Path); hi++ {
			e := [2]Coord{rt.Path[hi], rt.Path[hi+1]}
			if pl.trackBySrc[e] == nil {
				pl.trackBySrc[e] = map[int]int{}
			}
			track, seen := pl.trackBySrc[e][rt.Net.Src]
			if !seen {
				track = pl.nextTrack[e]
				pl.nextTrack[e]++
				pl.trackBySrc[e][rt.Net.Src] = track
			}
			if track >= capacity {
				return nil, fmt.Errorf("cgra: edge %v over capacity at bitstream time", e)
			}
			bs.TrackOf[[3]int{ri, hi, 0}] = track
			if seen {
				continue // switch already configured for this signal
			}
			// One word per hop: direction + track, addressed at the hop's
			// source tile.
			dir := dirCode(rt.Path[hi], rt.Path[hi+1])
			bs.Words = append(bs.Words, Word{
				tileAddr(rt.Path[hi], featSB, track*4+dir),
				uint32(ri)<<8 | uint32(dir)<<4 | uint32(track),
			})
		}
		// Connection box select at the destination.
		if len(rt.Path) >= 2 {
			last := rt.Path[len(rt.Path)-1]
			dir := dirCode(rt.Path[len(rt.Path)-2], last)
			bs.Words = append(bs.Words, Word{
				tileAddr(last, featCB, ri%256),
				uint32(dir),
			})
		}
	}
	return bs, nil
}

// opIndex returns op's position within the unit's op list.
func opIndex(u *merge.Unit, op interface{ Name() string }) int {
	for i, o := range u.Ops {
		if o.Name() == op.Name() {
			return i
		}
	}
	return 0
}

// sourceIndex returns src's position among the candidate sources of
// (unit, port), or -1.
func sourceIndex(spec interface {
	PortSources(unit, port int) []int
}, unit, port, src int) int {
	for i, s := range spec.PortSources(unit, port) {
		if s == src {
			return i
		}
	}
	return -1
}

func dirCode(from, to Coord) int {
	switch {
	case to.X > from.X:
		return 0 // east
	case to.X < from.X:
		return 1 // west
	case to.Y > from.Y:
		return 2 // south
	default:
		return 3 // north
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Size returns the number of configuration words.
func (b *Bitstream) Size() int { return len(b.Words) }
