package cluster

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/rtree"
	"repro/internal/server"
	"repro/internal/wal"
	"repro/internal/wire"
)

// In-process clusters — N shard servers and their router inside one process
// — are built here once, for every consumer: the repro facade
// (NewClusterServer behind prodb -cluster and proload -inprocess) and the
// equivalence test suite. One builder means one definition of how a dataset
// becomes shards.

// InProcessConfig parameterizes NewInProcess.
type InProcessConfig struct {
	// Shards is the number of spatial shards; default 4.
	Shards int
	// Tree shapes each shard's R*-tree (zero MaxEntries means the
	// paper's 204-entry pages); BulkFill is the bulk-load fill factor,
	// default 0.7.
	Tree     rtree.Params
	BulkFill float64
	// Server configures each shard server.
	Server server.Config
	// Sizer reports object payload sizes; it backs both the shard servers
	// and the router's cross-shard re-inserts. Required.
	Sizer func(rtree.ObjectID) int
	// EpochRing, MaxClients, Stats, OnShardError, RetryAttempts,
	// RetryBackoff and FailThreshold pass through to the router Config.
	EpochRing     int
	MaxClients    int
	Stats         *metrics.ClusterStats
	OnShardError  func(shard int, err error)
	RetryAttempts int
	RetryBackoff  time.Duration
	FailThreshold int

	// WALDir enables per-shard durability: shard s logs every applied batch
	// to WALDir/shard-<s> and checkpoints on the WAL's schedule, and
	// Kill/Restart crash-recovers shards from their logs. Empty disables
	// durability (and Restart). Reopening a WALDir that already holds
	// history restores every shard (primary and standby alike) from its
	// checkpoint + tail instead of bulk-loading the objects — run the
	// process with the same dataset and shard count so the partition the
	// router derives matches the one the shards were logged under.
	WALDir string
	// WAL tunes the per-shard logs (checkpoint threshold, fsync policy).
	WAL wal.Options
	// Replicas runs one warm standby server per shard, fed the primary's
	// acked batches over the replication stream and handed to the router
	// for failover. Standbys are memory-only (no WAL).
	Replicas bool
}

// InProcess is a running in-process cluster.
type InProcess struct {
	Router  *Router
	Servers []*server.Server // the shard primaries as built or spawned (stale after Kill/Restart)
	Counts  []int            // objects owned per shard at build time

	cfg InProcessConfig // defaults materialized; reused by elastic Spawn

	pmu   sync.Mutex // guards procs growth (elastic splits append slots)
	procs []*procShard
}

// proc returns slot s's shard process (nil for never-populated slots).
func (p *InProcess) proc(s int) *procShard {
	p.pmu.Lock()
	defer p.pmu.Unlock()
	if s < 0 || s >= len(p.procs) {
		return nil
	}
	return p.procs[s]
}

// Close stops every shard's background update writer, replication pump, and
// WAL handle.
func (p *InProcess) Close() {
	p.pmu.Lock()
	procs := append([]*procShard(nil), p.procs...)
	p.pmu.Unlock()
	for _, ps := range procs {
		if ps == nil {
			continue
		}
		ps.kill()
		if ps.replica != nil {
			ps.replica.Close()
		}
	}
}

// Kill crash-stops shard s: its transport starts failing immediately, the
// writer drains, the replication stream stops for good, and the WAL handle
// closes so a Restart can recover from disk. Idempotent. The router rides
// it out through retry, replica promotion, or redial-after-Restart.
func (p *InProcess) Kill(s int) {
	if ps := p.proc(s); ps != nil {
		ps.kill()
	}
}

// Restart recovers a killed shard from its WAL (checkpoint + tail replay)
// and brings it back as the shard's primary; the router's next redial binds
// to it. The restarted primary runs without a standby — its replica may
// already have been promoted, and re-streaming into it would double-apply.
// Restart of a live shard is a no-op.
func (p *InProcess) Restart(s int) error {
	ps := p.proc(s)
	if ps == nil {
		return fmt.Errorf("cluster: restart: no shard in slot %d", s)
	}
	return ps.restart()
}

// SplitShard splits shard s online (docs/ELASTIC.md): the far half of its
// region moves to a freshly spawned in-process shard behind an epoch-fenced
// cutover. The new slot gets its own WAL directory and standby when the
// cluster was configured with them.
func (p *InProcess) SplitShard(s int) error { return p.Router.SplitShard(s, p) }

// MergeShards folds shard t back into its KD sibling s and retires t's
// server. All clients flush (the dead slot's node ids cannot be
// invalidated individually).
func (p *InProcess) MergeShards(s, t int) error { return p.Router.MergeShards(s, t, p) }

// LiveShards returns the slots that currently own a region.
func (p *InProcess) LiveShards() []int { return p.Router.LiveShards() }

// SiblingOf returns shard s's KD sibling when both are leaves — the only
// pair MergeShards accepts.
func (p *InProcess) SiblingOf(s int) (int, bool) { return p.Router.SiblingOf(s) }

// Stats exposes the router's counters; with SplitShard/MergeShards and
// LiveShards/SiblingOf this completes the elastic.Cluster surface.
func (p *InProcess) Stats() *metrics.ClusterStats { return p.Router.Stats() }

// errShardDown is what a killed shard's transport returns: the process is
// gone, so every round trip fails until the router redials a restarted one.
var errShardDown = errors.New("cluster: shard is down")

// procShard is one shard "process": the live primary (nil while killed),
// its WAL, and the replication pump feeding the warm standby.
type procShard struct {
	idx     int
	cur     atomic.Pointer[server.Server]
	sizer   func(rtree.ObjectID) int
	baseCfg server.Config // per-server config without WAL/replication wiring
	walDir  string        // empty: no durability, Restart impossible
	walOpts wal.Options
	log     *wal.Log // open log of the live primary
	replica *server.Server
	repl    *replicator
	mu      sync.Mutex // serializes kill/restart transitions
}

func (ps *procShard) kill() {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	srv := ps.cur.Swap(nil)
	if srv == nil {
		return
	}
	srv.Close() // drains the writer: every acked batch is in the WAL and the stream
	if ps.repl != nil {
		ps.repl.stop() // flush the remaining stream into the standby
		ps.repl = nil
	}
	if ps.log != nil {
		ps.log.Close()
		ps.log = nil
	}
}

func (ps *procShard) restart() error {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if ps.cur.Load() != nil {
		return nil
	}
	if ps.walDir == "" {
		return fmt.Errorf("cluster: shard %d has no WAL to restart from", ps.idx)
	}
	l, err := wal.Open(ps.walDir, ps.walOpts)
	if err != nil {
		return fmt.Errorf("cluster: restart shard %d: %w", ps.idx, err)
	}
	rec := l.Recovered()
	if rec.Checkpoint == nil {
		l.Close()
		return fmt.Errorf("cluster: restart shard %d: no checkpoint on disk", ps.idx)
	}
	tail := replayTail(rec.Tail)
	cfg := ps.baseCfg
	cfg.WAL = l
	srv, err := server.Restore(rec.Checkpoint, tail, ps.sizer, cfg)
	if err != nil {
		l.Close()
		return fmt.Errorf("cluster: restart shard %d: %w", ps.idx, err)
	}
	ps.log = l
	ps.cur.Store(srv)
	return nil
}

// replayTail converts recovered WAL records into the server's replay form.
func replayTail(recs []wal.Record) []server.ReplayRecord {
	tail := make([]server.ReplayRecord, len(recs))
	for i, t := range recs {
		tail[i] = server.ReplayRecord{EpochBefore: t.EpochBefore, Ops: t.Ops}
	}
	return tail
}

// redial is the router's Shard.Redial: a transport bound to whatever
// primary is live right now, failing while the shard is down.
func (ps *procShard) redial() (wire.Transport, error) {
	srv := ps.cur.Load()
	if srv == nil {
		return nil, errShardDown
	}
	return boundTransport{ps: ps, srv: srv}, nil
}

// boundTransport serves one primary generation: once the shard is killed or
// restarted, round trips through the old binding fail like a dead TCP
// connection would, which is what drives the router's retry/redial path.
type boundTransport struct {
	ps  *procShard
	srv *server.Server
}

func (t boundTransport) RoundTrip(req *wire.Request) (*wire.Response, error) {
	if t.ps.cur.Load() != t.srv {
		return nil, errShardDown
	}
	if len(req.Updates) > 0 {
		return t.srv.ExecuteUpdates(req), nil
	}
	resp, _ := t.srv.Execute(req)
	return resp, nil
}

// replicator pumps acked batches from the primary's writer into the warm
// standby. The tap runs on the writer goroutine and blocks when the bounded
// stream fills, so the standby's lag stays bounded by the channel depth.
type replicator struct {
	ch   chan []wire.UpdateOp
	done chan struct{}
}

func newReplicator(replica *server.Server) *replicator {
	r := &replicator{ch: make(chan []wire.UpdateOp, 256), done: make(chan struct{})}
	go func() {
		defer close(r.done)
		for ops := range r.ch {
			resp := replica.ExecuteUpdates(&wire.Request{Replica: true, Updates: ops})
			replica.ReleaseResponse(resp)
		}
	}()
	return r
}

func (r *replicator) tap(_ uint64, ops []wire.UpdateOp) {
	r.ch <- append([]wire.UpdateOp(nil), ops...)
}

func (r *replicator) stop() {
	close(r.ch)
	<-r.done
}

// ShardTransport wraps a single-node server as a router shard: batched
// updates go through the writer queue, everything else executes as a
// query, and responses recycle through the server's pool.
func ShardTransport(sh *server.Server) Shard {
	return Shard{
		T: wire.TransportFunc(func(req *wire.Request) (*wire.Response, error) {
			if len(req.Updates) > 0 {
				return sh.ExecuteUpdates(req), nil
			}
			resp, _ := sh.Execute(req)
			return resp, nil
		}),
		Release: sh.ReleaseResponse,
	}
}

// NewInProcess KD-partitions the objects, bulk-loads one server per shard,
// and stands up the router over them. Every shard must own at least one
// object; datasets smaller than the shard count should shard less. With
// cfg.WALDir set each shard logs and checkpoints for crash recovery; with
// cfg.Replicas each shard streams to a warm standby the router can promote.
func NewInProcess(objects []dataset.Object, cfg InProcessConfig) (*InProcess, error) {
	n := cfg.Shards
	if n <= 0 {
		n = 4
	}
	if cfg.BulkFill <= 0 {
		cfg.BulkFill = 0.7
	}
	if cfg.Tree.MaxEntries == 0 {
		cfg.Tree = rtree.DefaultParams()
	}
	if cfg.Sizer == nil {
		return nil, fmt.Errorf("cluster: InProcessConfig.Sizer is required")
	}
	part, err := MakePartition(objects, n)
	if err != nil {
		return nil, err
	}
	split := part.Split(objects)
	cfg.Shards = n
	p := &InProcess{Counts: make([]int, n), cfg: cfg}
	shards := make([]Shard, n)
	for s := range split {
		if len(split[s]) == 0 {
			p.Close()
			return nil, fmt.Errorf("cluster: shard %d/%d owns no objects; use fewer shards", s, n)
		}
		items := make([]rtree.Item, len(split[s]))
		for i, o := range split[s] {
			items[i] = rtree.Item{Obj: o.ID, MBR: o.MBR}
		}
		ps := &procShard{idx: s, sizer: cfg.Sizer, baseCfg: cfg.Server, walOpts: cfg.WAL}
		srvCfg := cfg.Server
		var rec *wal.Recovery // non-nil: the WAL dir holds durable state to restore
		if cfg.WALDir != "" {
			dir := filepath.Join(cfg.WALDir, fmt.Sprintf("shard-%d", s))
			if err := os.MkdirAll(dir, 0o755); err != nil {
				p.Close()
				return nil, fmt.Errorf("cluster: shard %d wal dir: %w", s, err)
			}
			l, err := wal.Open(dir, cfg.WAL)
			if err != nil {
				p.Close()
				return nil, fmt.Errorf("cluster: shard %d wal: %w", s, err)
			}
			ps.walDir = dir
			ps.log = l
			srvCfg.WAL = l
			if r := l.Recovered(); r.Checkpoint != nil {
				rec = r
			}
		}
		var tail []server.ReplayRecord
		if rec != nil {
			tail = replayTail(rec.Tail)
		}
		if cfg.Replicas {
			// The standby must start bit-for-bit equal to the primary so the
			// replicated op stream keeps the pair identical: on a fresh boot
			// both bulk-load the identical items with identical parameters;
			// on a reopen both restore from the same checkpoint + tail (the
			// standby memory-only, without the log handle).
			var rep *server.Server
			if rec != nil {
				var err error
				rep, err = server.Restore(rec.Checkpoint, tail, cfg.Sizer, cfg.Server)
				if err != nil {
					ps.log.Close()
					p.Close()
					return nil, fmt.Errorf("cluster: shard %d standby restore: %w", s, err)
				}
			} else {
				rep = server.New(rtree.BulkLoad(cfg.Tree, items, cfg.BulkFill), cfg.Sizer, cfg.Server)
			}
			ps.replica = rep
			ps.repl = newReplicator(rep)
			srvCfg.OnApplied = ps.repl.tap
		}
		var sh *server.Server
		if rec != nil {
			var err error
			sh, err = server.Restore(rec.Checkpoint, tail, cfg.Sizer, srvCfg)
			if err != nil {
				ps.log.Close()
				p.Close()
				return nil, fmt.Errorf("cluster: shard %d restore: %w", s, err)
			}
		} else {
			sh = server.New(rtree.BulkLoad(cfg.Tree, items, cfg.BulkFill), cfg.Sizer, srvCfg)
			if srvCfg.WAL != nil {
				if err := sh.Checkpoint(); err != nil {
					sh.Close()
					p.Close()
					return nil, fmt.Errorf("cluster: shard %d initial checkpoint: %w", s, err)
				}
			}
		}
		ps.cur.Store(sh)
		p.procs = append(p.procs, ps)
		p.Servers = append(p.Servers, sh)
		p.Counts[s] = len(split[s])
		shards[s] = Shard{
			T:       boundTransport{ps: ps, srv: sh},
			Release: sh.ReleaseResponse,
			Redial:  ps.redial,
		}
		if ps.replica != nil {
			rep := ps.replica
			shards[s].Replica = wire.TransportFunc(func(req *wire.Request) (*wire.Response, error) {
				if len(req.Updates) > 0 {
					return rep.ExecuteUpdates(req), nil
				}
				resp, _ := rep.Execute(req)
				return resp, nil
			})
			shards[s].ReplicaRelease = rep.ReleaseResponse
		}
	}
	p.Router, err = New(shards, Config{
		Part:          part,
		Sizer:         cfg.Sizer,
		EpochRing:     cfg.EpochRing,
		MaxClients:    cfg.MaxClients,
		Stats:         cfg.Stats,
		OnShardError:  cfg.OnShardError,
		RetryAttempts: cfg.RetryAttempts,
		RetryBackoff:  cfg.RetryBackoff,
		FailThreshold: cfg.FailThreshold,
	})
	if err != nil {
		p.Close()
		return nil, err
	}
	// Seed the per-shard object-count gauges the rebalancer triggers on;
	// from here the router maintains them on every acked update.
	for s, c := range p.Counts {
		p.Router.Stats().Shard(s).Objects.Store(int64(c))
	}
	return p, nil
}

// Spawn stands up a fresh shard process for slot t from a bulk-loaded
// packed image — the split's transfer format: the donor's half bulk-loads
// into a tree, serializes through AppendImage, and the spawned server opens
// the deserialized copy, exactly as a remote spawn would receive it. The
// slot gets its own WAL directory (with an initial checkpoint covering the
// image) and a warm standby opened from the same image when the cluster is
// configured with durability or replicas. Called by Router.SplitShard;
// not for direct use.
func (p *InProcess) Spawn(t int, items []rtree.Item, size func(rtree.ObjectID) int) (Shard, error) {
	cfg := p.cfg
	img := rtree.BulkLoad(cfg.Tree, items, cfg.BulkFill).AppendImage(nil)
	tree, err := rtree.ReadImage(img)
	if err != nil {
		return Shard{}, fmt.Errorf("cluster: spawn shard %d image: %w", t, err)
	}
	ps := &procShard{idx: t, sizer: size, baseCfg: cfg.Server, walOpts: cfg.WAL}
	srvCfg := cfg.Server
	if cfg.WALDir != "" {
		// Slots are never reused, so shard-<t> is necessarily a fresh
		// directory the first time slot t spawns in this WALDir.
		dir := filepath.Join(cfg.WALDir, fmt.Sprintf("shard-%d", t))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return Shard{}, fmt.Errorf("cluster: spawn shard %d wal dir: %w", t, err)
		}
		l, err := wal.Open(dir, cfg.WAL)
		if err != nil {
			return Shard{}, fmt.Errorf("cluster: spawn shard %d wal: %w", t, err)
		}
		ps.walDir = dir
		ps.log = l
		srvCfg.WAL = l
	}
	if cfg.Replicas {
		repTree, err := rtree.ReadImage(img)
		if err != nil {
			if ps.log != nil {
				ps.log.Close()
			}
			return Shard{}, fmt.Errorf("cluster: spawn shard %d standby image: %w", t, err)
		}
		rep := server.New(repTree, size, cfg.Server)
		ps.replica = rep
		ps.repl = newReplicator(rep)
		srvCfg.OnApplied = ps.repl.tap
	}
	sh := server.New(tree, size, srvCfg)
	if srvCfg.WAL != nil {
		if err := sh.Checkpoint(); err != nil {
			sh.Close()
			if ps.repl != nil {
				ps.repl.stop()
			}
			if ps.replica != nil {
				ps.replica.Close()
			}
			ps.log.Close()
			return Shard{}, fmt.Errorf("cluster: spawn shard %d initial checkpoint: %w", t, err)
		}
	}
	ps.cur.Store(sh)
	p.pmu.Lock()
	for len(p.procs) <= t {
		p.procs = append(p.procs, nil)
	}
	p.procs[t] = ps
	p.Servers = append(p.Servers, sh)
	p.pmu.Unlock()
	shard := Shard{
		T:       boundTransport{ps: ps, srv: sh},
		Release: sh.ReleaseResponse,
		Redial:  ps.redial,
	}
	if ps.replica != nil {
		rep := ps.replica
		shard.Replica = wire.TransportFunc(func(req *wire.Request) (*wire.Response, error) {
			if len(req.Updates) > 0 {
				return rep.ExecuteUpdates(req), nil
			}
			resp, _ := rep.Execute(req)
			return resp, nil
		})
		shard.ReplicaRelease = rep.ReleaseResponse
	}
	return shard, nil
}

// Retire tears down slot t's process after a merge drained it (or after a
// split aborted before installing it): server closed, WAL closed, standby
// released. Called by the router; not for direct use.
func (p *InProcess) Retire(t int) {
	ps := p.proc(t)
	if ps == nil {
		return
	}
	ps.kill()
	if ps.replica != nil {
		ps.replica.Close()
		ps.replica = nil
	}
}
