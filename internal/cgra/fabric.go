// Package cgra models the CGRA fabric of the paper's Fig. 1 — a grid of
// PE and memory tiles joined by a statically configured interconnect of
// switch boxes (5 tracks per direction) and connection boxes — and
// implements placement (simulated annealing), routing (negotiated
// congestion), configuration bitstream generation, utilization
// accounting, and a cycle-accurate simulator used to validate mapped
// applications against the IR interpreter.
package cgra

import "fmt"

// TileKind discriminates fabric tiles.
type TileKind uint8

const (
	TilePE TileKind = iota
	TileMem
	TileIO
)

func (k TileKind) String() string {
	switch k {
	case TilePE:
		return "PE"
	case TileMem:
		return "MEM"
	case TileIO:
		return "IO"
	}
	return "?"
}

// Coord addresses a tile. The compute grid spans x in [0,W), y in [0,H);
// I/O sites ring the grid at x==-1, x==W, y==-1, y==H.
type Coord struct{ X, Y int }

func (c Coord) String() string { return fmt.Sprintf("(%d,%d)", c.X, c.Y) }

// Fabric describes a CGRA instance.
type Fabric struct {
	W, H int
	// MemColumnStride places a memory-tile column every Nth column
	// (Garnet-style); 4 in the paper's fabric.
	MemColumnStride int
	// Tracks16 and Tracks1 are per-direction track counts between
	// adjacent tiles (the paper's SB has five 16-bit tracks; 1-bit
	// control uses narrower tracks).
	Tracks16 int
	Tracks1  int
	// MaxRegsPerTile caps interconnect pipeline registers hosted by one
	// tile's switch box.
	MaxRegsPerTile int
}

// NewFabric returns the paper's 32x16 fabric with a memory column every
// 4th column and 5 routing tracks.
func NewFabric(w, h int) *Fabric {
	return &Fabric{
		W: w, H: h,
		MemColumnStride: 4,
		Tracks16:        5,
		Tracks1:         2,
		MaxRegsPerTile:  10,
	}
}

// Default returns the paper's 32x16 evaluation fabric.
func Default() *Fabric { return NewFabric(32, 16) }

// KindAt reports the tile kind at a coordinate (TileIO on the ring).
func (f *Fabric) KindAt(c Coord) TileKind {
	if f.onRing(c) {
		return TileIO
	}
	if f.MemColumnStride > 0 && c.X%f.MemColumnStride == f.MemColumnStride-1 {
		return TileMem
	}
	return TilePE
}

func (f *Fabric) onRing(c Coord) bool {
	return c.X == -1 || c.X == f.W || c.Y == -1 || c.Y == f.H
}

// InGrid reports whether c is a compute-grid tile.
func (f *Fabric) InGrid(c Coord) bool {
	return c.X >= 0 && c.X < f.W && c.Y >= 0 && c.Y < f.H
}

// ValidCoord reports whether c is a grid tile or a ring I/O site
// (corners excluded — no tile adjacency).
func (f *Fabric) ValidCoord(c Coord) bool {
	if f.InGrid(c) {
		return true
	}
	onX := (c.X == -1 || c.X == f.W) && c.Y >= 0 && c.Y < f.H
	onY := (c.Y == -1 || c.Y == f.H) && c.X >= 0 && c.X < f.W
	return onX != onY
}

// edgeDirs is the neighbor order shared by Neighbors and the dense edge
// index below — the PnR hot paths rely on the two agreeing.
var edgeDirs = [4]Coord{{1, 0}, {-1, 0}, {0, 1}, {0, -1}}

// Neighbors returns the orthogonally adjacent valid coordinates.
func (f *Fabric) Neighbors(c Coord) []Coord {
	var ns []Coord
	for _, d := range edgeDirs {
		n := Coord{c.X + d.X, c.Y + d.Y}
		if f.ValidCoord(n) {
			ns = append(ns, n)
		}
	}
	return ns
}

// Dense site/edge indexing: the PnR hot paths address the padded
// (W+2)x(H+2) grid — compute tiles plus the I/O ring, corners included
// but never adjacent to anything — through flat indices so per-proposal
// and per-net state lives in preallocated slices instead of maps. A site
// owns four outgoing edges ordered like edgeDirs, so a directed edge is
// siteIndex*4+dir.

// numSites returns the padded site count, ring and corners included.
func (f *Fabric) numSites() int { return (f.W + 2) * (f.H + 2) }

// siteIndex maps a grid or ring coordinate to its dense index.
func (f *Fabric) siteIndex(c Coord) int32 { return int32((c.Y+1)*(f.W+2) + c.X + 1) }

// siteCoord inverts siteIndex.
func (f *Fabric) siteCoord(i int32) Coord {
	w := f.W + 2
	return Coord{int(i)%w - 1, int(i)/w - 1}
}

// NumTiles returns the compute-grid tile count.
func (f *Fabric) NumTiles() int { return f.W * f.H }

func manhattan(a, b Coord) int {
	dx, dy := a.X-b.X, a.Y-b.Y
	if dx < 0 {
		dx = -dx
	}
	if dy < 0 {
		dy = -dy
	}
	return dx + dy
}
