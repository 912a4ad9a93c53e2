package rtree

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// packedEqual reports whether two packed images are identical position by
// position, head by head.
func packedEqual(t *testing.T, a, b *Packed) {
	t.Helper()
	if len(a.heads) != len(b.heads) || len(a.rects) != len(b.rects) {
		t.Fatalf("image shape differs: %d/%d heads, %d/%d positions",
			len(a.heads), len(b.heads), len(a.rects), len(b.rects))
	}
	for id := range a.heads {
		if a.heads[id] != b.heads[id] {
			t.Fatalf("node %d: head %+v vs %+v", id, a.heads[id], b.heads[id])
		}
	}
	for i := range a.rects {
		if a.rects[i] != b.rects[i] || a.codes[i] != b.codes[i] ||
			a.right[i] != b.right[i] || a.parent[i] != b.parent[i] ||
			a.child[i] != b.child[i] || a.obj[i] != b.obj[i] {
			t.Fatalf("position %d differs between images", i)
		}
	}
}

// TestRepackMatchesPack pins the incremental repack to the from-scratch
// build: after any mix of inserts, deletes, and moves, Repack(t, prev) must
// produce exactly the image Pack(t) does — the span-copy fast path may not
// change a single byte of position data.
func TestRepackMatchesPack(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	items := randItems(r, 1500)
	tr := buildDynamic(t, items, Params{MaxEntries: 16})
	prev := Pack(tr)

	next := ObjectID(len(items) + 1)
	for round := 0; round < 5; round++ {
		// Mutate a slice of the tree so part of it is stale against prev.
		for i := 0; i < 120; i++ {
			j := r.Intn(len(items))
			switch r.Intn(3) {
			case 0: // move
				to := items[j].MBR.Union(geom.RectFromCenter(
					geom.Pt(r.Float64(), r.Float64()), 0.005, 0.005))
				if !tr.Delete(items[j].Obj, items[j].MBR) {
					t.Fatalf("round %d: delete %d failed", round, items[j].Obj)
				}
				tr.Insert(items[j].Obj, to)
				items[j].MBR = to
			case 1: // churn: delete then re-insert under a fresh id
				if !tr.Delete(items[j].Obj, items[j].MBR) {
					t.Fatalf("round %d: delete %d failed", round, items[j].Obj)
				}
				items[j].Obj = next
				next++
				tr.Insert(items[j].Obj, items[j].MBR)
			default: // grow
				it := Item{Obj: next, MBR: geom.RectFromCenter(
					geom.Pt(r.Float64(), r.Float64()), 0.003, 0.003)}
				next++
				tr.Insert(it.Obj, it.MBR)
				items = append(items, it)
			}
		}
		inc := Repack(tr, prev)
		full := Pack(tr)
		packedEqual(t, inc, full)
		prev = inc
	}
}

// TestRepackInternsCodes checks that the shared code table actually dedups:
// the same code at different positions must be the same string header, not a
// fresh allocation per position.
func TestRepackInternsCodes(t *testing.T) {
	if c := internCode([]byte("0110")); c != "0110" {
		t.Fatalf("internCode(0110) = %q", c)
	}
	// Canonical storage: interned lookups serve the table entries themselves.
	if internCode([]byte("1")) != internedCodes[2] {
		t.Fatal("code 1 not served from the intern table")
	}
	deep := make([]byte, internDepth+3)
	for i := range deep {
		deep[i] = '0' + byte(i%2)
	}
	if got := internCode(deep); got != string(deep) {
		t.Fatalf("deep code fallback: got %q want %q", got, deep)
	}
}
