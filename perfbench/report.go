package main

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"time"

	"repro"
	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/query"
	"repro/internal/wire"
)

// Generator-lag guard: a run whose own generator fell this far behind, or
// shed any arrival, measured the benchmark rather than the program and
// reports no numbers. Pacers share the two cores with the server, so a few
// milliseconds of lateness are normal (and count in latency, which runs
// from the scheduled time); at the frozen rates the p99 stayed under 25 ms.
const maxLateP99 = 50 * time.Millisecond

const setupRepeats = 3

// timed is the untraced run: set up several times (the median is setup_s),
// then both phases on the last set-up, then the correctness checks.
func (r *runner) timed() (*result, error) {
	var setups []float64
	var heapMB float64
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		if err := r.setup(nil); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		if i < setupRepeats-1 {
			if err := r.st.close(); err != nil {
				return nil, fmt.Errorf("tear-down: %w", err)
			}
			continue
		}
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		heapMB = float64(m.HeapInuse) / (1 << 20)
	}
	lat := r.latencyPhase()
	r.describe("latency", lat)
	if err := guard(lat); err != nil {
		r.st.close()
		return nil, err
	}
	sat := r.saturationPhase()
	r.describe("saturation", sat)
	attempted := lat.attempted.Load() + sat.attempted.Load()
	failed := lat.failed.Load() + sat.failed.Load()
	updates := lat
	if r.sp.name != "write-mix" {
		// No update in the timed phases: update_* come from a closed-loop
		// write probe on the otherwise idle cluster.
		updates = &phase{}
		r.writeProbe(updates)
		attempted += updates.attempted.Load()
		failed += updates.failed.Load()
	}
	checkErr := r.verify()
	if err := r.st.close(); err != nil {
		return nil, fmt.Errorf("tear-down: %w", err)
	}
	if checkErr != nil {
		return nil, checkErr
	}
	out := []metric{
		{"setup_s", median(setups), "s"},
		{"capacity_ops_s", sat.capacity(), "ops/s"},
		{"remote_query_p50_ms", ms(lat.remote.quantile(0.50)), "ms"},
		{"down_kb_per_query", ratio(lat.downB.Load(), lat.queries.Load()) / 1024, "KB"},
		{"up_bytes_per_query", ratio(lat.upB.Load(), lat.queries.Load()), "B"},
		{"heap_mb", heapMB, "MB"},
	}
	fmt.Printf("# latency phase: offered %.0f ops/s for %v, %d queries (%d remote, p99 limit %v), %d update batches; saturation: %d ops in %v\n",
		r.sp.rate, r.latencyDur(), lat.query.count(), lat.remote.count(), r.sp.p99Limit, updates.update.count(), sat.inTime.Load(), sat.elapsed)
	fmt.Printf("# fail_frac %.6f (%d of %d operations failed, shed or timed out); gen.late_p99_ms %.3f\n",
		ratio(failed, attempted), failed, attempted, ms(lat.late.quantile(0.99)))
	// Printed, not in the result line: these are not gated (see "What is
	// gated" in METRICS.md).
	p99 := lat.query.quantile(0.99)
	fmt.Printf("# query_p50_ms %.6f ms (all queries, local answers included)\n", ms(lat.query.quantile(0.50)))
	fmt.Printf("# query_p99_ms %.6f ms (limit %v)\n", ms(p99), r.sp.p99Limit)
	fmt.Printf("# update_p50_ms %.6f ms\n", ms(updates.update.quantile(0.50)))
	fmt.Printf("# update_p99_ms %.6f ms\n", ms(updates.update.quantile(0.99)))
	if p99 > r.sp.p99Limit {
		fmt.Printf("# query p99 exceeds the workload's limit\n")
	}
	return report(out, attempted, failed), nil
}

// describe prints a phase's raw outcome, valid or not.
func (r *runner) describe(name string, ph *phase) {
	fmt.Printf("# %s phase: %d queries p50 %v p99 %v, %d updates p50 %v p99 %v, %d in time, %d failed, %d shed, late p99 %v\n",
		name, ph.query.count(), ph.query.quantile(0.5), ph.query.quantile(0.99),
		ph.update.count(), ph.update.quantile(0.5), ph.update.quantile(0.99),
		ph.inTime.Load(), ph.failed.Load(), ph.shed.Load(), ph.late.quantile(0.99))
}

// guard rejects a latency phase the generator could not drive on time.
func guard(ph *phase) error {
	if n := ph.shed.Load(); n > 0 {
		return fmt.Errorf("run invalid: the generator shed %d arrivals", n)
	}
	if late := ph.late.quantile(0.99); late > maxLateP99 {
		return fmt.Errorf("run invalid: generator lateness p99 %v exceeds %v", late, maxLateP99)
	}
	return nil
}

// writeProbe times update-batch acknowledgements on a quiet cluster: one
// connection moves the same moveBatch dataset objects away and back, one
// batch at a time, so batches never coalesce in a shard's writer and the
// dataset ends as it began.
func (r *runner) writeProbe(ph *phase) {
	runtime.GC() // start from the same heap state whatever ran before
	rng := rand.New(rand.NewSource(seedFor(datasetSeed, 0, saltProbe)))
	objs := rng.Perm(len(r.objs))[:moveBatch]
	for b := 0; b < probeBatches; b++ {
		ops := make([]wire.UpdateOp, len(objs))
		for i, k := range objs {
			o := r.objs[k]
			moved := q32Rect(geom.R(o.MBR.MinX+1e-3, o.MBR.MinY+1e-3, o.MBR.MaxX+1e-3, o.MBR.MaxY+1e-3))
			from, to := o.MBR, moved
			if b%2 == 1 {
				from, to = moved, o.MBR
			}
			ops[i] = wire.UpdateOp{Kind: wire.UpdateMove, Obj: o.ID, From: from, To: to}
		}
		runUpdate(r.st.conns[0], idWriter+1, ops, time.Now(), ph)
	}
}

// verify checks kept answers against the oracle: every mobile-tour answer,
// the remote-read sample, and for write-mix a probe set run once updates
// have quiesced, against the dataset plus every acknowledged move.
func (r *runner) verify() error {
	var checked int
	var err error
	switch r.sp.name {
	case "write-mix":
		objs := append(append([]repro.Object(nil), r.objs...), r.pool.objs...)
		o := newOracle(objs)
		c := newCohort(seedFor(r.seed, 1, saltProbe), 32)
		var keep answers
		ph := &phase{}
		for i := 0; i < probeQueries; i++ {
			q := remoteReadQuery(c)
			if i%2 == 1 { // half the probes where the pool objects now are
				pc := r.pool.objs[(i*7919)%len(r.pool.objs)].MBR.Center()
				q = query.NewRange(q32Rect(geom.RectFromCenter(pc, 0.02, 0.02)))
				if i%4 == 3 {
					q = query.NewKNN(pc, 1+i%8)
				}
			}
			runQuery(r.st.conns[0], &slot{id: idProbe}, q, false, time.Now(), ph, &keep)
		}
		if ph.failed.Load() > 0 {
			return errors.New("write-mix probe query failed")
		}
		err = keep.verify(o)
		checked = len(keep.list)
	default:
		o := newOracle(r.objs)
		err = r.keep.verify(o)
		checked = len(r.keep.list)
		for _, m := range r.clients {
			for _, a := range m.kept {
				if err == nil {
					err = o.check(a.q, a.results, a.pairs)
				}
			}
			checked += len(m.kept)
		}
	}
	if err != nil {
		return fmt.Errorf("oracle mismatch: %w", err)
	}
	fmt.Printf("# oracle: %d answers match the brute-force definitions\n", checked)
	return nil
}

// traced runs the workload untraced on the facade for the reference
// capacity, then again on the traced topology, and reports per-layer
// metrics from the traced latency phase.
func (r *runner) traced() (*result, error) {
	if err := r.setup(nil); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	r.latencyPhase()
	capU := r.saturationPhase()
	if err := r.st.close(); err != nil {
		return nil, fmt.Errorf("tear-down: %w", err)
	}

	tr := newTracer(1 << 20)
	if err := r.setup(tr); err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	c0, cs0, ns0 := tr.counts(), r.st.cstats(), r.st.ns.Stats().Snapshot()
	t0 := tr.now()
	lat := r.latencyPhase()
	t1 := tr.now()
	c1, cs1, ns1 := tr.counts(), r.st.cstats(), r.st.ns.Stats().Snapshot()
	capT := r.saturationPhase()
	checkErr := r.verify()
	if err := r.st.close(); err != nil {
		return nil, fmt.Errorf("tear-down: %w", err)
	}
	if checkErr != nil {
		return nil, checkErr
	}
	if err := guard(lat); err != nil {
		return nil, err
	}
	spans := tr.window(t0, t1)
	path := filepath.Join(r.base, "trace", fmt.Sprintf("%s-seed%d.tsv", r.sp.name, r.seed))
	if err := writeSpans(path, spans); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	if dropped := tr.n.Load() - int64(len(tr.spans)); dropped > 0 {
		fmt.Printf("# span buffer full: %d spans of the saturation phase not kept\n", dropped)
	}
	fmt.Printf("# %d spans of the traced latency phase written to %s\n", len(spans), path)
	capUntraced := capU.capacity()
	capTraced := capT.capacity()
	out := r.layerMetrics(lat, spans, c1.sub(c0), cs0, cs1, ns0, ns1)
	out = append(out,
		metric{"trace.capacity_untraced_ops_s", capUntraced, "ops/s"},
		metric{"trace.capacity_traced_ops_s", capTraced, "ops/s"},
		metric{"trace.overhead_frac", 1 - capTraced/capUntraced, "ratio"},
	)
	return report(out, lat.attempted.Load(), lat.failed.Load()), nil
}

// layerMetrics derives the per-layer metrics of one traced phase.
func (r *runner) layerMetrics(ph *phase, spans []span, c counts, cs0, cs1 metrics.ClusterSnapshot, ns0, ns1 metrics.ServerSnapshot) []metric {
	self := selfTimes(spans)
	var routed, knn, join, subs int64
	var reads, writes recorder
	for _, s := range spans {
		switch s.layer {
		case layerCluster:
			if s.kind >= uint8(query.Range) && s.kind <= uint8(query.Join) {
				routed++
			}
			if s.kind == uint8(query.KNN) {
				knn++
			}
			if s.kind == uint8(query.Join) {
				join++
			}
		case layerServer:
			dur := time.Duration(s.end - s.start)
			switch s.kind {
			case kindUpdate:
				writes.add(dur)
			case kindCatalog:
				subs++
			default:
				subs++
				reads.add(dur)
			}
		}
	}
	mobile := r.sp.name == "mobile-tour"
	coreOnly := func(v float64) float64 {
		if !mobile {
			return 0
		}
		return v
	}
	return []metric{
		{"core.local_frac", coreOnly(ratio(ph.local.Load(), ph.queries.Load())), "ratio"},
		{"core.hitc", coreOnly(ratio(ph.saved.Load(), ph.result.Load())), "ratio"},
		{"core.fmr", coreOnly(ratio(ph.falseMiss.Load(), ph.saved.Load()+ph.falseMiss.Load())), "ratio"},
		{"core.self_us_p50", us(self[layerCore].quantile(0.50)), "us"},
		{"core.self_us_p99", us(self[layerCore].quantile(0.99)), "us"},
		{"core.retries_per_query", coreOnly(ratio(ph.retries.Load(), ph.queries.Load())), "count"},
		{"wire.self_us_p50", us(self[layerWire].quantile(0.50)), "us"},
		{"wire.self_us_p99", us(self[layerWire].quantile(0.99)), "us"},
		{"wire.sock_bytes_out_per_req", ratio(ns1.BytesOut-ns0.BytesOut, ns1.Requests-ns0.Requests), "B"},
		{"wire.batched_frac", ratio(ns1.Batches-ns0.Batches, ns1.Requests-ns0.Requests), "ratio"},
		{"cluster.self_us_p50", us(self[layerCluster].quantile(0.50)), "us"},
		{"cluster.self_us_p99", us(self[layerCluster].quantile(0.99)), "us"},
		{"cluster.subqueries_per_query", ratio(subs, routed), "count"},
		{"cluster.single_shard_frac", ratio(cs1.SingleShard-cs0.SingleShard, routed), "ratio"},
		{"cluster.reissues_per_knn", ratio(cs1.Reissues-cs0.Reissues, knn), "count"},
		{"cluster.cross_pairs_per_join", ratio(cs1.CrossPairTasks-cs0.CrossPairTasks, join), "count"},
		{"server.query_us_p50", us(reads.quantile(0.50)), "us"},
		{"server.query_us_p99", us(reads.quantile(0.99)), "us"},
		{"server.visited_nodes_per_query", ratio(c.visited, routed), "count"},
		{"server.engine_ops_per_query", ratio(c.engine, routed), "count"},
		{"server.index_bytes_per_query", ratio(c.index, routed), "B"},
		{"server.update_batch_us_p50", us(writes.quantile(0.50)), "us"},
		{"server.update_batch_us_p99", us(writes.quantile(0.99)), "us"},
		{"server.mutations_per_s", float64(c.applied) / ph.elapsed.Seconds(), "1/s"},
		{"server.update_rejects", float64(c.rejects), "count"},
		{"wal.bytes_per_mutation", ratio(c.walB, c.walOps), "B"},
		{"wal.checkpoints", float64(c.ckpts), "count"},
		{"gen.late_p99_ms", ms(ph.late.quantile(0.99)), "ms"},
		{"gen.shed", float64(ph.shed.Load()), "count"},
	}
}
