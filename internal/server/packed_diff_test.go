package server

import (
	"bytes"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/query"
	"repro/internal/rtree"
	"repro/internal/wire"
)

// quant32 snaps a coordinate to its nearest float32, the wire's precision,
// so windows and moves built from it carry values a wire client can send.
func quant32(v float64) float64 { return float64(float32(v)) }

// diffRequests builds the differential workload: range windows (random,
// float32-quantized, and anchored exactly on stored entry edges so
// touching-boundary comparisons are exercised), kNN at entry corners, and
// join windows.
func diffRequests(r *rand.Rand, items []rtree.Item, n int) []*wire.Request {
	reqs := make([]*wire.Request, n)
	for i := range reqs {
		req := &wire.Request{Client: wire.ClientID(i%13 + 1)}
		a := items[r.Intn(len(items))].MBR
		switch i % 5 {
		case 0: // random window
			c := geom.Pt(r.Float64(), r.Float64())
			req.Q = query.NewRange(geom.RectFromCenter(c, 0.01+0.1*r.Float64(), 0.01+0.1*r.Float64()))
		case 1: // window edges exactly on a stored entry's edges
			b := items[r.Intn(len(items))].MBR
			req.Q = query.NewRange(geom.R(
				min(a.MinX, b.MinX), min(a.MinY, b.MinY),
				max(a.MaxX, b.MaxX), max(a.MaxY, b.MaxY)))
		case 2: // float32-boundary window: edges are exact float32 values
			c := geom.Pt(r.Float64(), r.Float64())
			w := geom.RectFromCenter(c, 0.05, 0.05)
			req.Q = query.NewRange(geom.R(
				quant32(w.MinX), quant32(w.MinY), quant32(w.MaxX), quant32(w.MaxY)))
		case 3: // kNN centered on a stored entry corner
			req.Q = query.NewKNN(geom.Pt(a.MinX, a.MaxY), 1+r.Intn(8))
		default: // join
			c := geom.Pt(r.Float64(), r.Float64())
			req.Q = query.NewJoin(geom.RectFromCenter(c, 0.04, 0.04), 0.004)
		}
		reqs[i] = req
	}
	return reqs
}

// TestPackedMatchesArenaDifferential is the randomized differential suite:
// every query must encode to byte-identical wire responses whether it runs
// through the packed read-optimized image or the arena tree, across epochs
// (updates dirty nodes into the un-packed delta, then a repack folds them
// back in) and across index forms.
func TestPackedMatchesArenaDifferential(t *testing.T) {
	for _, form := range []IndexForm{AdaptiveForm, CompactForm} {
		srv, items := buildServer(t, 101, 4000, Config{Form: form})
		r := rand.New(rand.NewSource(int64(form) + 5))
		live := append([]rtree.Item(nil), items...)

		for round := 0; round < 3; round++ {
			// Wait out any in-flight background repack so the packed image
			// is stable for the round (no update runs during the queries,
			// so no new repack can start mid-comparison).
			for srv.packing.Load() {
				runtime.Gosched()
			}
			pk := srv.packed.Load()
			if pk == nil {
				t.Fatalf("form %d round %d: no packed image", form, round)
			}
			for i, req := range diffRequests(r, live, 150) {
				respP, infoP := srv.Execute(req)
				packed := wire.EncodeResponse(nil, respP)
				srv.packed.Store(nil)
				respA, infoA := srv.Execute(req)
				srv.packed.Store(pk)
				arena := wire.EncodeResponse(nil, respA)
				if !bytes.Equal(packed, arena) {
					t.Errorf("form %d round %d req %d (%v): packed response differs from arena",
						form, round, i, req.Q.Kind)
				}
				if infoP != infoA {
					t.Errorf("form %d round %d req %d: exec info %+v (packed) vs %+v (arena)",
						form, round, i, infoP, infoA)
				}
			}
			// Advance the epoch: move a slice of objects so part of the tree
			// is served from the delta next round (and, past the repack
			// threshold, from a freshly packed image the round after).
			var ops []wire.UpdateOp
			for i := 0; i < 250; i++ {
				j := r.Intn(len(live))
				from := live[j].MBR
				to := geom.R(
					quant32(from.MinX+0.002), quant32(from.MinY-0.001),
					quant32(from.MaxX+0.002), quant32(from.MaxY-0.001))
				ops = append(ops, wire.UpdateOp{
					Kind: wire.UpdateMove, Obj: live[j].Obj, From: from, To: to})
				live[j].MBR = to
			}
			results := make([]bool, len(ops))
			srv.ApplyUpdates(ops, results)
			for i, ok := range results {
				if !ok {
					t.Fatalf("form %d round %d: move %d rejected", form, round, i)
				}
			}
		}
	}
}

// TestPackedConcurrentPublish races queries (plain ranges and the mixed
// differential workload) against a writer that keeps mutating the index and
// publishing fresh packed images.
// Run under -race in CI: the per-(NodeID, Gen) validation contract means a
// query may observe any published image, old or new, but never a torn one.
func TestPackedConcurrentPublish(t *testing.T) {
	srv, items := buildServer(t, 103, 3000, Config{})
	deadline := time.Now().Add(400 * time.Millisecond)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the single writer: move objects, forcing repacks
		defer wg.Done()
		live := append([]rtree.Item(nil), items...)
		r := rand.New(rand.NewSource(7))
		for time.Now().Before(deadline) {
			var ops []wire.UpdateOp
			for i := 0; i < 120; i++ {
				j := r.Intn(len(live))
				from := live[j].MBR
				to := geom.R(
					quant32(from.MinX+0.001), quant32(from.MinY+0.001),
					quant32(from.MaxX+0.001), quant32(from.MaxY+0.001))
				ops = append(ops, wire.UpdateOp{
					Kind: wire.UpdateMove, Obj: live[j].Obj, From: from, To: to})
				live[j].MBR = to
			}
			srv.ApplyUpdates(ops, nil)
		}
	}()

	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g) + 11))
			for time.Now().Before(deadline) {
				if g%2 == 0 {
					for _, req := range diffRequests(r, items, 12) {
						resp, _ := srv.Execute(req)
						if resp == nil {
							t.Error("mixed query under concurrent publish returned nil response")
							return
						}
						srv.ReleaseResponse(resp)
					}
					continue
				}
				c := geom.Pt(r.Float64(), r.Float64())
				req := &wire.Request{Client: wire.ClientID(g + 1),
					Q: query.NewRange(geom.RectFromCenter(c, 0.05, 0.05))}
				resp, _ := srv.Execute(req)
				if resp == nil {
					t.Error("query under concurrent publish returned nil response")
					return
				}
				srv.ReleaseResponse(resp)
			}
		}(g)
	}
	wg.Wait()
}
