package rtree

import "repro/internal/geom"

// Packed is a read-optimized, pointer-free image of a tree: for every live
// node it flattens the node's binary partition tree (the same deterministic
// recursive R*-split used by bpt.Build) into contiguous global arrays laid
// out for traversal speed:
//
//	heads  [NodeID]      → {gen, level, off, count}     (count 0 = not covered)
//	rects  []geom.Rect   → exact float64 MBRs (result and key construction)
//	right  []int32       → preorder topology: left child = i+1, right = right[i],
//	                       0 = leaf (index 0 is always a root, never a right child)
//	parent []int32       → ancestor closure for frontier marking, -1 at roots
//	codes  []string      → prebuilt partition codes ("", "0", "01", ...)
//	child  []NodeID      → leaf position: child node (InvalidNode for objects)
//	obj    []ObjectID    → leaf position: object id
//
// Every per-position array is indexed by the same global position index; a
// node's positions occupy the contiguous range [off, off+count) in preorder
// (root first, left subtree, then right subtree), which is also lexicographic
// code order.
//
// A Packed image is immutable and keyed by page generation: position data for
// (id, gen) is valid against any snapshot whose node id carries the same gen,
// because a (NodeID, Gen) pair names immutable page content (the arena
// contract). Nodes touched after the image was built simply miss the gen
// check and fall back to the arena tree — they are the un-packed delta.
type Packed struct {
	heads []packedHead

	rects  []geom.Rect
	right  []int32
	parent []int32
	codes  []string
	child  []NodeID
	obj    []ObjectID
}

// packedHead locates one node's positions inside the global arrays.
type packedHead struct {
	gen   uint32
	level int32
	off   int32
	count int32
}

// PackedSpan addresses one node's position range inside a Packed image.
type PackedSpan struct {
	Off   int32
	Count int32
}

// Pack builds the packed image of every live, non-empty node of t. The tree
// must not be mutated during the call (pack from a pinned snapshot). Position
// topology, codes, and exact MBRs reproduce bpt.Build bit-for-bit: the same
// split algorithm runs over the same entry lists, so a cut emitted from the
// packed image is byte-identical to one emitted from the partition forest.
func Pack(t *Tree) *Packed { return Repack(t, nil) }

// Repack builds a fresh packed image of t, reusing prev where it can: a node
// whose (ID, Gen) is still covered by prev has byte-identical position data,
// so its span is copied (memcpy plus an index rebase) instead of re-split.
// With the default repack threshold at most a quarter of the pages are stale,
// so a steady-state repack does O(delta) split work plus O(total) copying —
// the difference keeps repack cost off the writer's update throughput.
// Passing a nil prev rebuilds everything.
func Repack(t *Tree, prev *Packed) *Packed {
	p := &Packed{heads: make([]packedHead, t.NodeSpan())}

	// Size the arrays up front: a node with E entries has 2E-1 positions.
	total := 0
	t.Nodes(func(n *Node) bool {
		if len(n.Entries) > 0 {
			total += 2*len(n.Entries) - 1
		}
		return true
	})
	p.rects = make([]geom.Rect, 0, total)
	p.right = make([]int32, 0, total)
	p.parent = make([]int32, 0, total)
	p.codes = make([]string, 0, total)
	p.child = make([]NodeID, 0, total)
	p.obj = make([]ObjectID, 0, total)

	pk := packer{p: p}
	t.Nodes(func(n *Node) bool {
		if len(n.Entries) == 0 {
			return true
		}
		off := int32(len(p.rects))
		if sp, ok := coveredBy(prev, n.ID, n.Gen); ok {
			copySpan(p, prev, sp)
		} else {
			if cap(pk.work) < len(n.Entries) {
				pk.work = make([]Entry, 0, len(n.Entries)*2)
				pk.scratch = NewSplitScratch(cap(pk.work))
			}
			pk.work = append(pk.work[:0], n.Entries...)
			pk.code = pk.code[:0]
			pk.build(pk.work, -1)
		}
		p.heads[n.ID] = packedHead{
			gen:   n.Gen,
			level: int32(n.Level),
			off:   off,
			count: int32(len(p.rects)) - off,
		}
		return true
	})
	return p
}

// coveredBy is Covers with a nil-image guard for the full-rebuild path.
func coveredBy(prev *Packed, id NodeID, gen uint32) (PackedSpan, bool) {
	if prev == nil {
		return PackedSpan{}, false
	}
	return prev.Covers(id, gen)
}

// copySpan appends one node's positions from prev to the image under
// construction. Within a span every right/parent index points inside the same
// span (each node's partition tree is self-contained), so rebasing by the
// offset delta is the only fixup; the right-child leaf sentinel 0 and the
// parent root sentinel -1 are preserved as-is. Code strings are interned, so
// copying them shares storage rather than duplicating it.
func copySpan(p *Packed, prev *Packed, sp PackedSpan) {
	delta := int32(len(p.rects)) - sp.Off
	end := sp.Off + sp.Count
	p.rects = append(p.rects, prev.rects[sp.Off:end]...)
	p.codes = append(p.codes, prev.codes[sp.Off:end]...)
	p.child = append(p.child, prev.child[sp.Off:end]...)
	p.obj = append(p.obj, prev.obj[sp.Off:end]...)
	for i := sp.Off; i < end; i++ {
		r := prev.right[i]
		if r != 0 {
			r += delta
		}
		p.right = append(p.right, r)
		pa := prev.parent[i]
		if pa >= 0 {
			pa += delta
		}
		p.parent = append(p.parent, pa)
	}
}

// packer carries the per-node build scratch.
type packer struct {
	p       *Packed
	work    []Entry
	code    []byte
	scratch *SplitScratch
}

// build emits the partition tree over entries in preorder and returns the
// global index of the emitted root. It mirrors bpt's recursive construction:
// Split permutes entries in place and returns the left-half length.
func (pk *packer) build(entries []Entry, parentIdx int32) int32 {
	p := pk.p
	idx := int32(len(p.rects))
	p.codes = append(p.codes, internCode(pk.code))
	p.parent = append(p.parent, parentIdx)
	// Placeholders; filled in below once children (and the MBR) are known.
	p.right = append(p.right, 0)
	p.rects = append(p.rects, geom.Rect{})
	p.child = append(p.child, InvalidNode)
	p.obj = append(p.obj, 0)

	var mbr geom.Rect
	if len(entries) == 1 {
		mbr = entries[0].MBR
		p.child[idx] = entries[0].Child
		p.obj[idx] = entries[0].Obj
	} else {
		k := pk.scratch.Split(entries, 1)
		pk.code = append(pk.code, '0')
		left := pk.build(entries[:k], idx)
		pk.code[len(pk.code)-1] = '1'
		r := pk.build(entries[k:], idx)
		pk.code = pk.code[:len(pk.code)-1]
		p.right[idx] = r
		mbr = p.rects[left].Union(p.rects[r])
	}
	p.rects[idx] = mbr
	return idx
}

// internDepth bounds the code lengths covered by the shared intern table.
// Splits are near-balanced, so 12 bits covers every position of any page the
// arena produces in practice; pathological codes just fall back to allocating.
const internDepth = 12

// internedCodes holds one canonical string per binary partition code of up to
// internDepth bits, shared by every packed image. Pack emits ~2 positions per
// entry and a fresh string per position was the bulk of a repack's garbage —
// under a sustained update stream that garbage landed as GC pressure on the
// writer. Codes of length L occupy table indexes [2^L-1, 2^(L+1)-2] in value
// order.
var internedCodes = func() []string {
	t := make([]string, 1<<(internDepth+1)-1)
	buf := make([]byte, internDepth)
	for l := 1; l <= internDepth; l++ {
		base := 1<<l - 1
		for v := 0; v < 1<<l; v++ {
			for k := 0; k < l; k++ {
				buf[k] = '0' + byte(v>>(l-1-k)&1)
			}
			t[base+v] = string(buf[:l])
		}
	}
	return t
}()

// internCode returns the canonical shared string for a partition code.
func internCode(code []byte) string {
	if len(code) > internDepth {
		return string(code)
	}
	v := 0
	for _, c := range code {
		v = v<<1 | int(c&1)
	}
	return internedCodes[1<<len(code)-1+v]
}

// Covers returns the position span of node id if the image was built from
// page generation gen — i.e. if the packed content is the node's current
// content. A miss means the node belongs to the un-packed delta and the
// caller must walk the arena tree instead.
func (p *Packed) Covers(id NodeID, gen uint32) (PackedSpan, bool) {
	if int(id) >= len(p.heads) {
		return PackedSpan{}, false
	}
	h := p.heads[id]
	if h.count == 0 || h.gen != gen {
		return PackedSpan{}, false
	}
	return PackedSpan{Off: h.off, Count: h.count}, true
}

// NodeCount returns how many nodes the image covers (diagnostics).
func (p *Packed) NodeCount() int {
	n := 0
	for _, h := range p.heads {
		if h.count > 0 {
			n++
		}
	}
	return n
}

// Positions returns the total number of packed positions (diagnostics).
func (p *Packed) Positions() int { return len(p.rects) }

// FindCode resolves a partition code to its global position index by walking
// the packed topology bit by bit — the pointer-free replacement for the
// forest's byCode string map.
func (p *Packed) FindCode(sp PackedSpan, code string) (int32, bool) {
	i := sp.Off
	for k := 0; k < len(code); k++ {
		r := p.right[i]
		if r == 0 {
			return 0, false // descended past a leaf: stale or foreign code
		}
		if code[k] == '1' {
			i = r
		} else {
			i++
		}
	}
	return i, true
}

// IsLeaf reports whether position i stands for a single real entry.
func (p *Packed) IsLeaf(i int32) bool { return p.right[i] == 0 }

// Right returns the right-child position of i (left child is always i+1);
// zero for leaves.
func (p *Packed) Right(i int32) int32 { return p.right[i] }

// Parent returns the parent position of i, or -1 at a node root.
func (p *Packed) Parent(i int32) int32 { return p.parent[i] }

// Rect returns the exact MBR of position i.
func (p *Packed) Rect(i int32) geom.Rect { return p.rects[i] }

// Code returns the partition code of position i.
func (p *Packed) Code(i int32) string { return p.codes[i] }

// ChildID returns the child node a leaf position references (InvalidNode for
// object entries).
func (p *Packed) ChildID(i int32) NodeID { return p.child[i] }

// ObjID returns the object a leaf position references.
func (p *Packed) ObjID(i int32) ObjectID { return p.obj[i] }
