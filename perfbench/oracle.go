package main

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro"
	"repro/internal/geom"
	"repro/internal/query"
	"repro/internal/rtree"
)

// oracle answers range, kNN and join queries by evaluating each query
// kind's definition from internal/query over a plain object list:
//
//	range: every object whose MBR intersects Window
//	kNN:   the K objects of smallest MinDist(Center, MBR)
//	join:  every unordered pair of distinct objects whose MBRs both
//	       intersect JoinWindow and whose RectMinDist is at most Dist
//
// A uniform grid over object centers only narrows which objects are
// tested; every candidate goes through the same geom predicate the engine
// uses, so the grid can skip work but never change an answer (the tests
// compare it against a full scan). Queries are evaluated on their float32
// wire geometry, the geometry the server receives.
type oracle struct {
	rects   []geom.Rect // by object id - 1
	present []bool
	dim     int
	cells   [][]int32 // grid cell -> object indices (by center)
	// halfW and halfH bound how far an MBR reaches beyond its center.
	halfW, halfH float64
}

func newOracle(objs []repro.Object) *oracle {
	maxID := 0
	for _, o := range objs {
		maxID = max(maxID, int(o.ID))
	}
	dim := max(1, int(math.Sqrt(float64(len(objs))/4)))
	o := &oracle{
		rects:   make([]geom.Rect, maxID),
		present: make([]bool, maxID),
		dim:     dim,
		cells:   make([][]int32, dim*dim),
	}
	for _, ob := range objs {
		i := int(ob.ID) - 1
		o.rects[i], o.present[i] = ob.MBR, true
		o.halfW = max(o.halfW, ob.MBR.Width()/2)
		o.halfH = max(o.halfH, ob.MBR.Height()/2)
		c := o.cellOf(ob.MBR.Center())
		o.cells[c] = append(o.cells[c], int32(i))
	}
	return o
}

func (o *oracle) coord(v float64) int {
	return min(max(int(v*float64(o.dim)), 0), o.dim-1)
}

func (o *oracle) cellOf(p geom.Point) int { return o.coord(p.Y)*o.dim + o.coord(p.X) }

// candidates calls fn for every object whose MBR may intersect r.
func (o *oracle) candidates(r geom.Rect, fn func(i int32)) {
	x0, x1 := o.coord(r.MinX-o.halfW), o.coord(r.MaxX+o.halfW)
	y0, y1 := o.coord(r.MinY-o.halfH), o.coord(r.MaxY+o.halfH)
	for y := y0; y <= y1; y++ {
		for x := x0; x <= x1; x++ {
			for _, i := range o.cells[y*o.dim+x] {
				fn(i)
			}
		}
	}
}

func (o *oracle) rangeIDs(w geom.Rect) []rtree.ObjectID {
	var out []rtree.ObjectID
	o.candidates(w, func(i int32) {
		if w.Intersects(o.rects[i]) {
			out = append(out, rtree.ObjectID(i+1))
		}
	})
	return out
}

// knnDists returns the k smallest MinDist values, ascending: the answer a
// correct kNN must reproduce whichever of several tied objects it picks.
func (o *oracle) knnDists(c geom.Point, k int) []float64 {
	var d []float64
	for r := 1 / float64(o.dim); ; r *= 2 {
		d = d[:0]
		o.candidates(geom.R(c.X-r, c.Y-r, c.X+r, c.Y+r), func(i int32) {
			if v := geom.MinDist(c, o.rects[i]); v <= r {
				d = append(d, v)
			}
		})
		// Every object within distance r is a candidate of the square of
		// half-side r, so with k of them found the k nearest are exact.
		if len(d) >= k || r > 2 {
			break
		}
	}
	slices.Sort(d)
	return d[:min(k, len(d))]
}

func (o *oracle) joinPairs(w geom.Rect, dist float64) map[[2]rtree.ObjectID]bool {
	var in []int32
	o.candidates(w, func(i int32) {
		if w.Intersects(o.rects[i]) {
			in = append(in, i)
		}
	})
	slices.SortFunc(in, func(a, b int32) int {
		return cmp.Compare(o.rects[a].MinX, o.rects[b].MinX)
	})
	pairs := make(map[[2]rtree.ObjectID]bool)
	for x, a := range in {
		ra := o.rects[a]
		for _, b := range in[x+1:] {
			rb := o.rects[b]
			if rb.MinX-ra.MaxX > dist {
				break // sorted by MinX: no later b is within dist on x
			}
			if geom.RectMinDist(ra, rb) <= dist {
				pairs[canonPair(rtree.ObjectID(a+1), rtree.ObjectID(b+1))] = true
			}
		}
	}
	return pairs
}

func canonPair(a, b rtree.ObjectID) [2]rtree.ObjectID {
	if b < a {
		a, b = b, a
	}
	return [2]rtree.ObjectID{a, b}
}

// wireQuery is the query as the server decodes it: geometry in float32.
func wireQuery(q query.Query) query.Query {
	q.Window = q32Rect(q.Window)
	q.Center = geom.Pt(q32(q.Center.X), q32(q.Center.Y))
	q.JoinWindow = q32Rect(q.JoinWindow)
	q.Dist = q32(q.Dist)
	return q
}

func q32(v float64) float64 { return float64(float32(v)) }

func q32Rect(r geom.Rect) geom.Rect {
	return geom.R(q32(r.MinX), q32(r.MinY), q32(r.MaxX), q32(r.MaxY))
}

// check verifies one answer: results for range and kNN, pairs for joins.
func (o *oracle) check(q query.Query, results []rtree.ObjectID, pairs [][2]rtree.ObjectID) error {
	q = wireQuery(q)
	switch q.Kind {
	case query.Range:
		want := o.rangeIDs(q.Window)
		got := slices.Clone(results)
		slices.Sort(want)
		slices.Sort(got)
		if !slices.Equal(got, want) {
			return fmt.Errorf("range %v: got %d objects, want %d", q.Window, len(got), len(want))
		}
	case query.KNN:
		want := o.knnDists(q.Center, q.K)
		got := make([]float64, 0, len(results))
		seen := make(map[rtree.ObjectID]bool, len(results))
		for _, id := range results {
			if !o.known(id) || seen[id] {
				return fmt.Errorf("knn %v k=%d: unknown or repeated object %d", q.Center, q.K, id)
			}
			seen[id] = true
			got = append(got, geom.MinDist(q.Center, o.rects[id-1]))
		}
		slices.Sort(got)
		if !slices.Equal(got, want) {
			return fmt.Errorf("knn %v k=%d: distances %v, want %v", q.Center, q.K, got, want)
		}
	case query.Join:
		want := o.joinPairs(q.JoinWindow, q.Dist)
		got := make(map[[2]rtree.ObjectID]bool, len(pairs))
		for _, p := range pairs {
			c := canonPair(p[0], p[1])
			if got[c] {
				return fmt.Errorf("join %v d=%v: pair %v repeated", q.JoinWindow, q.Dist, c)
			}
			got[c] = true
			if !want[c] {
				return fmt.Errorf("join %v d=%v: pair %v is not a result", q.JoinWindow, q.Dist, c)
			}
		}
		if len(got) != len(want) {
			return fmt.Errorf("join %v d=%v: got %d pairs, want %d", q.JoinWindow, q.Dist, len(got), len(want))
		}
	default:
		return fmt.Errorf("unknown query kind %v", q.Kind)
	}
	return nil
}

func (o *oracle) known(id rtree.ObjectID) bool {
	return id >= 1 && int(id) <= len(o.rects) && o.present[id-1]
}
