package graph

import "repro/internal/wire"

// Binary codecs for the persistent result store (internal/store). The
// encodings are exact round-trips: out- and in-adjacency lists are
// serialized separately in their stored order, so a decoded graph
// enumerates nodes, edges, and embeddings in byte-identical order to the
// original — which is what lets cached analyses reproduce downstream
// results (occurrence dedup, MIS ranking, pattern selection are all
// order-sensitive). The format is length-prefixed throughout (uvarint,
// internal/wire), self-delimiting, and versioned by the store envelope,
// not here.

// AppendBinary appends a self-delimiting binary encoding of the graph.
// Collection lengths carry nilness (wire.Enc.Len): graphs mix nil and
// empty-but-allocated adjacency rows depending on how they were built,
// and the round-trip must reproduce the original exactly — the store's
// codec tests compare with reflect.DeepEqual, which distinguishes the
// two.
func (g *Graph) AppendBinary(buf []byte) []byte {
	e := &wire.Enc{Buf: buf}
	e.Len(len(g.labels), g.labels == nil)
	for _, l := range g.labels {
		e.Str(l)
	}
	for _, adj := range [2][][]Edge{g.out, g.in} {
		for _, es := range adj {
			e.Len(len(es), es == nil)
			for _, ed := range es {
				e.Uvarint(uint64(ed.From))
				e.Uvarint(uint64(ed.To))
				e.Uvarint(uint64(ed.Port))
			}
		}
	}
	return e.Buf
}

// DecodeBinaryGraph decodes a graph produced by AppendBinary; errors
// are left on d.
func DecodeBinaryGraph(d *wire.Dec) *Graph {
	n, isNil := d.Len()
	g := &Graph{}
	if !isNil {
		g.labels = make([]string, n)
		g.out = make([][]Edge, n)
		g.in = make([][]Edge, n)
	}
	for i := range g.labels {
		g.labels[i] = d.Str()
	}
	for _, adj := range [2][][]Edge{g.out, g.in} {
		for i := range adj {
			m, rowNil := d.Len()
			if rowNil {
				continue // row was nil in the original
			}
			es := make([]Edge, m)
			for j := range es {
				f, t, p := d.Uvarint(), d.Uvarint(), d.Uvarint()
				if f >= uint64(n) || t >= uint64(n) {
					d.Fail("graph edge out of range")
				}
				es[j] = Edge{From: NodeID(f), To: NodeID(t), Port: int(p)}
			}
			adj[i] = es
		}
	}
	return g
}

// AppendBinary appends a self-delimiting encoding of the embedding list.
// A nil list encodes like an empty one with zero positions.
func (l *EmbeddingList) AppendBinary(buf []byte) []byte {
	e := &wire.Enc{Buf: buf}
	e.Uvarint(uint64(l.Positions()))
	e.Uvarint(uint64(l.Len()))
	for _, v := range l.Raw() {
		e.Uvarint(uint64(uint32(v)))
	}
	return e.Buf
}

// DecodeBinaryEmbeddingList decodes a list produced by AppendBinary;
// errors are left on d.
func DecodeBinaryEmbeddingList(d *wire.Dec) *EmbeddingList {
	k, n := d.Uvarint(), d.Uvarint()
	total := d.Product(k, n) // each element is at least one byte
	if k == 0 && n != 0 {
		d.Fail("embeddings without positions") // Len() would be unbounded
	}
	if d.Err() != nil {
		return &EmbeddingList{}
	}
	l := &EmbeddingList{k: int(k), n: int(n)}
	if total == 0 {
		return l // keep flat nil, matching a fresh list exactly
	}
	l.flat = make([]int32, total)
	for i := range l.flat {
		l.flat[i] = int32(uint32(d.Uvarint()))
	}
	return l
}
