package main

import (
	"bufio"
	"cmp"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/query"
	"repro/internal/server"
	"repro/internal/wal"
	"repro/internal/wire"
)

// Layers of the traced run, outermost first. A span of one layer is the
// parent of the next layer's spans of the same client that it contains.
type layer uint8

const (
	layerCore    layer = iota // Client.Query (mobile-tour only)
	layerWire                 // the client's Transport.RoundTrip
	layerCluster              // the NetServer handler: router.RoundTrip
	layerServer               // one shard call: Execute or ExecuteUpdates
	numLayers
)

var layerNames = [numLayers]string{"core", "wire", "cluster", "server"}

// Span kinds: query.Kind values for queries, plus these.
const (
	kindUpdate  uint8 = 0
	kindCatalog uint8 = 4
)

// span is one timed call at a layer boundary. Times are nanoseconds since
// the tracer started. The client id links spans across layers: the
// benchmark never has two operations of one client id in flight, so the
// spans of one client inside a parent span belong to its operation.
type span struct {
	start, end int64
	client     wire.ClientID
	layer      layer
	kind       uint8
}

// tracer keeps spans in a preallocated buffer (no locks on the hot path)
// and the counts that only the wrapped calls can see.
type tracer struct {
	base    time.Time
	spans   []span
	n       atomic.Int64
	visited atomic.Int64 // ExecInfo.VisitedNodes over shard query calls
	engine  atomic.Int64 // ExecInfo.Engine.Total() over shard query calls
	index   atomic.Int64 // SizeModel index bytes of shard query responses
	applied atomic.Int64 // update operations applied
	rejects atomic.Int64 // update operations a shard refused
	walOps  atomic.Int64 // operations appended to shard logs
	walB    atomic.Int64 // bytes appended to shard logs
	ckpts   atomic.Int64 // checkpoints written
}

func newTracer(capacity int) *tracer {
	return &tracer{base: time.Now(), spans: make([]span, capacity)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func kindOf(req *wire.Request) uint8 {
	switch {
	case len(req.Updates) > 0:
		return kindUpdate
	case req.Catalog:
		return kindCatalog
	}
	return uint8(req.Q.Kind)
}

func (t *tracer) record(l layer, req *wire.Request, start int64) {
	t.recordKind(l, req.Client, kindOf(req), start)
}

func (t *tracer) recordKind(l layer, client wire.ClientID, kind uint8, start int64) {
	end := t.now()
	if i := t.n.Add(1) - 1; i < int64(len(t.spans)) {
		t.spans[i] = span{start: start, end: end, client: client, layer: l, kind: kind}
	}
}

// counts is a snapshot of the tracer's counters, for phase deltas.
type counts struct{ visited, engine, index, applied, rejects, walOps, walB, ckpts int64 }

func (t *tracer) counts() counts {
	return counts{t.visited.Load(), t.engine.Load(), t.index.Load(), t.applied.Load(),
		t.rejects.Load(), t.walOps.Load(), t.walB.Load(), t.ckpts.Load()}
}

func (c counts) sub(o counts) counts {
	return counts{c.visited - o.visited, c.engine - o.engine, c.index - o.index, c.applied - o.applied,
		c.rejects - o.rejects, c.walOps - o.walOps, c.walB - o.walB, c.ckpts - o.ckpts}
}

// tracedTransport records the client side of every round trip.
type tracedTransport struct {
	t  wire.Transport
	tr *tracer
}

func (t tracedTransport) RoundTrip(req *wire.Request) (*wire.Response, error) {
	start := t.tr.now()
	resp, err := t.t.RoundTrip(req)
	t.tr.record(layerWire, req, start)
	return resp, err
}

// tracedShard is a shard's transport in the traced topology: the same
// calls cluster.ShardTransport makes, keeping the ExecInfo it drops.
type tracedShard struct {
	sh *server.Server
	tr *tracer
}

var sizeModel = wire.DefaultSizeModel()

func (t tracedShard) RoundTrip(req *wire.Request) (*wire.Response, error) {
	start := t.tr.now()
	if len(req.Updates) > 0 {
		resp := t.sh.ExecuteUpdates(req)
		t.tr.record(layerServer, req, start)
		for _, ok := range resp.UpdateResults {
			if ok {
				t.tr.applied.Add(1)
			} else {
				t.tr.rejects.Add(1)
			}
		}
		return resp, nil
	}
	resp, info := t.sh.Execute(req)
	t.tr.record(layerServer, req, start)
	if !req.Catalog {
		t.tr.visited.Add(int64(info.VisitedNodes))
		t.tr.engine.Add(int64(info.Engine.Total()))
		t.tr.index.Add(int64(sizeModel.IndexBytes(resp)))
	}
	return resp, nil
}

// countingLog counts what a shard's writer appends to its log. The writer
// goroutine is its only caller, so the scratch buffer needs no lock.
type countingLog struct {
	log     *wal.Log
	tr      *tracer
	scratch []byte
}

func (c *countingLog) Append(epochBefore uint64, ops []wire.UpdateOp) error {
	// A record is an 8-byte frame header (length, CRC) plus the payload.
	c.scratch = wire.AppendWALPayload(c.scratch[:0], epochBefore, ops)
	c.tr.walB.Add(int64(8 + len(c.scratch)))
	c.tr.walOps.Add(int64(len(ops)))
	return c.log.Append(epochBefore, ops)
}

func (c *countingLog) ShouldCheckpoint() bool { return c.log.ShouldCheckpoint() }

func (c *countingLog) Checkpoint(epoch uint64, payload []byte) error {
	c.tr.ckpts.Add(1)
	return c.log.Checkpoint(epoch, payload)
}

// window returns the recorded spans that started in [from, to).
func (t *tracer) window(from, to int64) []span {
	n := min(t.n.Load(), int64(len(t.spans)))
	var out []span
	for _, s := range t.spans[:n] {
		if s.start >= from && s.start < to {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes attributes spans to their parents and returns, per layer, the
// self time of every span: its duration minus the union of the intervals
// of the child spans it contains (shard calls of one request overlap).
func selfTimes(spans []span) [numLayers]*recorder {
	var out [numLayers]*recorder
	for l := range out {
		out[l] = &recorder{}
	}
	sorted := slices.Clone(spans)
	slices.SortFunc(sorted, func(a, b span) int {
		if c := cmp.Compare(a.client, b.client); c != 0 {
			return c
		}
		if c := cmp.Compare(a.start, b.start); c != 0 {
			return c
		}
		return cmp.Compare(a.layer, b.layer) // a parent before a child starting with it
	})
	for i := 0; i < len(sorted); {
		j := i
		for j < len(sorted) && sorted[j].client == sorted[i].client {
			j++
		}
		attributeClient(sorted[i:j], &out)
		i = j
	}
	return out
}

func attributeClient(spans []span, out *[numLayers]*recorder) {
	for pi, p := range spans {
		// Children of p: spans of the next layer that start inside p. They
		// follow p in start order; stop at the first span starting after p.
		var covered, curStart, curEnd int64 = 0, -1, -1
		for _, c := range spans[pi+1:] {
			if c.start > p.end {
				break
			}
			if c.layer != p.layer+1 || c.end > p.end {
				continue
			}
			if c.start > curEnd {
				covered += curEnd - curStart
				curStart, curEnd = c.start, c.end
			} else {
				curEnd = max(curEnd, c.end)
			}
		}
		covered += curEnd - curStart
		out[p.layer].add(time.Duration(p.end - p.start - covered))
	}
}

// writeSpans writes spans as tab-separated lines: layer, kind, client,
// start_ns, end_ns.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "layer\tkind\tclient\tstart_ns\tend_ns")
	for _, s := range spans {
		kind := query.Kind(s.kind).String()
		switch s.kind {
		case kindUpdate:
			kind = "update"
		case kindCatalog:
			kind = "catalog"
		}
		fmt.Fprintf(w, "%s\t%s\t%d\t%d\t%d\n", layerNames[s.layer], kind, s.client, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
