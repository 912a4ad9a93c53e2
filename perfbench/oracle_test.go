package main

import (
	"math/rand"
	"slices"
	"testing"

	"repro"
	"repro/internal/geom"
	"repro/internal/query"
	"repro/internal/rtree"
	"repro/internal/wire"
)

func testQueries(rng *rand.Rand, n int) []query.Query {
	qs := make([]query.Query, 0, n)
	for i := 0; i < n; i++ {
		c := geom.Pt(q32(rng.Float64()), q32(rng.Float64()))
		switch i % 3 {
		case 0:
			qs = append(qs, query.NewRange(q32Rect(geom.RectFromCenter(c, 0.05, 0.05))))
		case 1:
			qs = append(qs, query.NewKNN(c, 1+rng.Intn(8)))
		default:
			qs = append(qs, query.NewJoin(q32Rect(geom.RectFromCenter(c, 0.1, 0.1)), q32(0.01)))
		}
	}
	return qs
}

// TestOracleMatchesEngine runs the server engine and the oracle on one small
// dataset and requires every answer to pass the oracle, and a perturbed
// answer to fail it.
func TestOracleMatchesEngine(t *testing.T) {
	objs := quantizeObjects(repro.GenerateNE(3000, 5))
	srv := repro.NewServer(objs, repro.ServerConfig{})
	defer srv.Close()
	tr := srv.Transport()
	or := newOracle(objs)
	rng := rand.New(rand.NewSource(9))
	nonEmpty := 0
	for _, q := range testQueries(rng, 300) {
		resp, err := tr.RoundTrip(&wire.Request{Client: 1, Q: q})
		if err != nil {
			t.Fatal(err)
		}
		ids := make([]rtree.ObjectID, len(resp.Objects))
		for i, o := range resp.Objects {
			ids[i] = o.ID
		}
		if err := or.check(q, ids, resp.Pairs); err != nil {
			t.Fatalf("engine answer rejected: %v", err)
		}
		switch {
		case q.Kind == query.Join && len(resp.Pairs) > 0:
			nonEmpty++
			if or.check(q, ids, resp.Pairs[1:]) == nil {
				t.Fatalf("join answer missing a pair accepted")
			}
		case q.Kind != query.Join && len(ids) > 0:
			nonEmpty++
			if or.check(q, ids[1:], nil) == nil {
				t.Fatalf("%v answer missing an object accepted", q.Kind)
			}
		}
	}
	if nonEmpty < 100 {
		t.Fatalf("only %d non-empty answers; the test data is too sparse", nonEmpty)
	}
}

// TestOracleGridMatchesScan compares the grid-filtered oracle with a plain
// scan of every object.
func TestOracleGridMatchesScan(t *testing.T) {
	objs := quantizeObjects(repro.GenerateNE(2000, 11))
	or := newOracle(objs)
	rng := rand.New(rand.NewSource(3))
	for _, q := range testQueries(rng, 150) {
		switch q.Kind {
		case query.Range:
			var want []rtree.ObjectID
			for _, o := range objs {
				if q.Window.Intersects(o.MBR) {
					want = append(want, o.ID)
				}
			}
			got := or.rangeIDs(q.Window)
			slices.Sort(got)
			slices.Sort(want)
			if !slices.Equal(got, want) {
				t.Fatalf("range %v: grid %d objects, scan %d", q.Window, len(got), len(want))
			}
		case query.KNN:
			var all []float64
			for _, o := range objs {
				all = append(all, geom.MinDist(q.Center, o.MBR))
			}
			slices.Sort(all)
			if got := or.knnDists(q.Center, q.K); !slices.Equal(got, all[:q.K]) {
				t.Fatalf("knn %v: grid %v, scan %v", q.Center, got, all[:q.K])
			}
		case query.Join:
			want := 0
			for i, a := range objs {
				for _, b := range objs[i+1:] {
					if a.MBR.Intersects(q.JoinWindow) && b.MBR.Intersects(q.JoinWindow) &&
						geom.RectMinDist(a.MBR, b.MBR) <= q.Dist {
						want++
					}
				}
			}
			if got := len(or.joinPairs(q.JoinWindow, q.Dist)); got != want {
				t.Fatalf("join %v: grid %d pairs, scan %d", q.JoinWindow, got, want)
			}
		}
	}
}
