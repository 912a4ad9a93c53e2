package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"time"

	"repro"
	"repro/internal/cluster"
	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/query"
	"repro/internal/rtree"
	"repro/internal/server"
	"repro/internal/wal"
	"repro/internal/wire"
)

// stack is one running system under test: a 4-shard cluster behind a
// wire.NetServer on a loopback listener, and the benchmark's pipelined
// connections to it.
type stack struct {
	handler wire.Handler // in-process entry point, bypassing the socket
	release func(*wire.Response)
	counts  []int // objects per shard at build time
	ns      *wire.NetServer
	served  chan error
	conns   []wire.Transport
	closers []io.Closer
	cstats  func() metrics.ClusterSnapshot
	shutAll func() // closes the shard servers and their logs
}

// newFacadeStack builds the system the way cmd/prodb -cluster does, through
// repro.NewClusterServer and its NetServer.
func newFacadeStack(objs []repro.Object, walDir string) (*stack, error) {
	cs, err := repro.NewClusterServer(objs, repro.ClusterConfig{Shards: shards, WALDir: walDir, WALNoSync: walDir != ""})
	if err != nil {
		return nil, err
	}
	st := &stack{
		handler: cs.Handler(),
		release: cs.ReleaseResponse,
		counts:  cs.ShardObjects(),
		ns:      cs.NetServer(repro.ServeOptions{}),
		cstats:  cs.ClusterStats,
		shutAll: cs.Close,
	}
	return st, nil
}

// newTracedStack assembles the same topology from the exported
// constructors, so every layer boundary can be wrapped: shard calls go to
// Execute/ExecuteUpdates directly (keeping ExecInfo), each shard's log is
// counted, and the NetServer handler is timed around the router.
func newTracedStack(objs []repro.Object, walDir string, tr *tracer) (*stack, error) {
	sizes := make(map[rtree.ObjectID]int, len(objs))
	for _, o := range objs {
		sizes[o.ID] = o.Size
	}
	sizer := func(id rtree.ObjectID) int { return sizes[id] }
	part, err := cluster.MakePartition(objs, shards)
	if err != nil {
		return nil, err
	}
	// The facade's page size: 4 KiB pages of SizeModel entries.
	params := rtree.Params{MaxEntries: 4096 / wire.DefaultSizeModel().Entry}
	var servers []*server.Server
	var logs []*wal.Log
	shutAll := func() {
		for _, sh := range servers {
			sh.Close()
		}
		for _, l := range logs {
			l.Close()
		}
	}
	split := part.Split(objs)
	shardsT := make([]cluster.Shard, len(split))
	counts := make([]int, len(split))
	for s, sobjs := range split {
		items := make([]rtree.Item, len(sobjs))
		for i, o := range sobjs {
			items[i] = rtree.Item{Obj: o.ID, MBR: o.MBR}
		}
		var cfg server.Config
		if walDir != "" {
			l, err := wal.Open(filepath.Join(walDir, fmt.Sprintf("shard-%d", s)), wal.Options{NoSync: true})
			if err != nil {
				shutAll()
				return nil, err
			}
			logs = append(logs, l)
			cfg.WAL = &countingLog{log: l, tr: tr}
		}
		sh := server.New(rtree.BulkLoad(params, items, 0.7), sizer, cfg)
		servers = append(servers, sh)
		if walDir != "" {
			if err := sh.Checkpoint(); err != nil {
				shutAll()
				return nil, err
			}
		}
		shardsT[s] = cluster.ShardTransport(sh)
		shardsT[s].T = tracedShard{sh: sh, tr: tr}
		counts[s] = len(sobjs)
	}
	router, err := cluster.New(shardsT, cluster.Config{Part: part, Sizer: sizer})
	if err != nil {
		shutAll()
		return nil, err
	}
	for s, c := range counts {
		router.Stats().Shard(s).Objects.Store(int64(c))
	}
	handler := func(req *wire.Request) (*wire.Response, error) {
		start := tr.now()
		resp, err := router.RoundTrip(req)
		tr.record(layerCluster, req, start)
		return resp, err
	}
	return &stack{
		handler: handler,
		release: router.ReleaseResponse,
		counts:  counts,
		ns:      wire.NewNetServer(handler, wire.ServeConfig{Stats: &metrics.ServerStats{}, Release: router.ReleaseResponse}),
		cstats:  func() metrics.ClusterSnapshot { return router.Stats().Snapshot() },
		shutAll: shutAll,
	}, nil
}

// serve starts the listener and dials n pipelined connections; with a
// tracer, every connection's round trips are recorded as wire spans.
func (st *stack) serve(n int, tr *tracer) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	st.served = make(chan error, 1)
	go func() { st.served <- st.ns.Serve(ln) }()
	for i := 0; i < n; i++ {
		t, err := repro.Dial(ln.Addr().String())
		if err != nil {
			return err
		}
		if c, ok := t.(io.Closer); ok {
			st.closers = append(st.closers, c)
		}
		if tr != nil {
			t = tracedTransport{t: t, tr: tr}
		}
		st.conns = append(st.conns, t)
	}
	return nil
}

// close stops everything in dependency order and waits for the listener
// goroutine: connections, then the serving layer, then the shards.
func (st *stack) close() error {
	for _, c := range st.closers {
		c.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := st.ns.Shutdown(ctx)
	if st.served != nil {
		if serr := <-st.served; serr != nil && !errors.Is(serr, wire.ErrServerClosed) {
			err = errors.Join(err, serr)
		}
	}
	st.shutAll()
	return err
}

// checkEquivalent requires the traced topology to be the program the
// untraced runs measure: identical per-shard object counts, and
// byte-identical encoded responses to the facade on a fixed probe set.
func checkEquivalent(a, b *stack, probes []*wire.Request) error {
	if fmt.Sprint(a.counts) != fmt.Sprint(b.counts) {
		return fmt.Errorf("per-shard object counts differ: %v vs %v", a.counts, b.counts)
	}
	for i, req := range probes {
		ea, err := encodeVia(a, req)
		if err != nil {
			return err
		}
		eb, err := encodeVia(b, req)
		if err != nil {
			return err
		}
		if !bytes.Equal(ea, eb) {
			return fmt.Errorf("probe %d (%v): encoded responses differ (%d vs %d bytes)", i, req.Q.Kind, len(ea), len(eb))
		}
	}
	return nil
}

func encodeVia(st *stack, req *wire.Request) ([]byte, error) {
	r := *req
	resp, err := st.handler(&r)
	if err != nil {
		return nil, err
	}
	enc := wire.EncodeResponse(nil, resp)
	st.release(resp)
	return enc, nil
}

// equivalenceProbes is the fixed probe set: a catalog, then a walk of
// range, kNN and join queries from one client, so epochs and per-client
// state evolve identically on both sides.
func equivalenceProbes(seed int64) []*wire.Request {
	c := newCohort(seedFor(seed, 0, saltProbe), 16)
	reqs := []*wire.Request{{Client: 9999, Catalog: true}}
	for i := 0; i < 120; i++ {
		var q query.Query
		if i%10 == 9 {
			q = query.NewJoin(q32Rect(geom.RectFromCenter(c.center(), 0.04, 0.04)), q32(0.004))
		} else {
			q = remoteReadQuery(c)
		}
		reqs = append(reqs, &wire.Request{Client: 9999, Q: q})
	}
	return reqs
}
