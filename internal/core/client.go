package core

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/query"
	"repro/internal/rtree"
	"repro/internal/wire"
)

// Transport aliases wire.Transport; the simulation wires it directly to the
// server, cmd/prodb over TCP (binary protocol with pipelining). A Client
// issues one round trip at a time, but transports are safe for concurrent
// use, so many Clients may share one pipelined connection — each round trip
// is correlated back by request id (see wire.BinaryClientConn).
type Transport = wire.Transport

// TransportFunc aliases wire.TransportFunc.
type TransportFunc = wire.TransportFunc

// ClientConfig parameterizes a proactive-caching client.
type ClientConfig struct {
	ID      wire.ClientID
	Root    query.Ref // catalog entry for the index root
	Sizes   wire.SizeModel
	Channel wire.Channel
	// FMRPeriod is how many queries elapse between false-miss-rate reports
	// to the server (the adaptive feedback of Section 4.3). Zero disables
	// reporting.
	FMRPeriod int
}

// Client is a mobile client running Algorithm 1 over its proactive cache.
type Client struct {
	cfg       ClientConfig
	cache     *Cache
	transport Transport

	sinceReport     int
	windowFalseMiss int
	windowCached    int

	// epoch is the last server update epoch this client has seen; requests
	// carry it and responses return invalidations accumulated since.
	epoch uint64
}

// NewClient assembles a client around an existing cache and transport.
func NewClient(cfg ClientConfig, cache *Cache, transport Transport) *Client {
	if cfg.Sizes == (wire.SizeModel{}) {
		cfg.Sizes = wire.DefaultSizeModel()
	}
	if cfg.Channel == (wire.Channel{}) {
		cfg.Channel = wire.DefaultChannel()
	}
	return &Client{cfg: cfg, cache: cache, transport: transport}
}

// Cache exposes the client's cache.
func (c *Client) Cache() *Cache { return c.cache }

// SetPosition forwards the client's current location to the cache (used by
// the FAR replacement policy).
func (c *Client) SetPosition(p geom.Point) { c.cache.SetPosition(p) }

// Report summarizes the processing of one query (the per-query metrics of
// Section 6.1).
type Report struct {
	LocalOnly bool

	UplinkBytes   int
	DownlinkBytes int

	// ResultBytes is |R| in bytes; SavedBytes is |Rs| (locally confirmed);
	// FalseMissBytes are cached result objects the index failed to confirm.
	ResultBytes    int
	SavedBytes     int
	FalseMissBytes int

	// RespTime is the size-weighted mean delivery time of result bytes
	// (Section 4.1); TotalTime is when the full response (index included)
	// finished arriving.
	RespTime  float64
	TotalTime float64

	Results []rtree.ObjectID
	Pairs   [][2]rtree.ObjectID

	EngineStats query.Stats
	CacheOps    int

	// Retries counts stale re-executions: attempts whose local results
	// consumed cache items the server had invalidated in the meantime.
	Retries int
	// Invalidated counts cache items dropped by this query's responses.
	Invalidated int
}

// HitRate returns the cache hit rate hitc = |Rs| / |R| of the query.
func (r Report) HitRate() float64 {
	if r.ResultBytes == 0 {
		return 0
	}
	return float64(r.SavedBytes) / float64(r.ResultBytes)
}

// ByteHitRate returns hitb = |R ∩ C| / |R| of the query.
func (r Report) ByteHitRate() float64 {
	if r.ResultBytes == 0 {
		return 0
	}
	return float64(r.SavedBytes+r.FalseMissBytes) / float64(r.ResultBytes)
}

// Query runs one spatial query through the proactive caching pipeline:
// local processing (stage 1), remainder to the server (stage 2), and result
// merging plus cache insertion (stage 3). When the server's invalidation
// report shows the attempt consumed stale cache items, the query re-executes
// against the pruned cache (bounded retries); the wasted round trips stay in
// the byte and time accounting.
func (c *Client) Query(q query.Query) (Report, error) {
	c.sinceReport++
	var upCost, downCost, invalidated int
	var waitCost float64
	for attempt := 0; ; attempt++ {
		rep, stale, err := c.attempt(q)
		if err != nil {
			return rep, err
		}
		rep.Invalidated += invalidated
		if !stale || attempt >= 2 {
			rep.UplinkBytes += upCost
			rep.DownlinkBytes += downCost
			rep.RespTime += waitCost
			rep.TotalTime += waitCost
			rep.Retries = attempt
			c.windowFalseMiss += rep.FalseMissBytes
			c.windowCached += rep.SavedBytes + rep.FalseMissBytes
			return rep, nil
		}
		// The stale attempt's answers are discarded but the user still paid
		// for its communication.
		upCost += rep.UplinkBytes
		downCost += rep.DownlinkBytes
		waitCost += rep.TotalTime
		invalidated = rep.Invalidated
	}
}

// attempt executes the three-stage pipeline once. stale reports that the
// response invalidated cache items this very query had relied on.
func (c *Client) attempt(q query.Query) (Report, bool, error) {
	c.cache.BeginQuery()
	opsStart := c.cache.Ops
	var rep Report

	out := query.Run(q, cacheProvider{c.cache}, query.SeedRoot(q, c.cfg.Root))
	rep.EngineStats = out.Stats

	// Locally confirmed result objects (Rs).
	saved := make(map[rtree.ObjectID]int) // id -> size
	for _, r := range out.Results {
		rep.Results = append(rep.Results, r.Obj)
		saved[r.Obj] = c.objectSize(r.Obj)
	}
	for _, p := range out.Pairs {
		rep.Pairs = append(rep.Pairs, [2]rtree.ObjectID{p[0].Obj, p[1].Obj})
		for _, ref := range p {
			if _, ok := saved[ref.Obj]; !ok {
				saved[ref.Obj] = c.objectSize(ref.Obj)
				rep.Results = append(rep.Results, ref.Obj)
			}
		}
	}
	for _, size := range saved {
		rep.SavedBytes += size
	}

	if out.Complete {
		rep.LocalOnly = true
		rep.ResultBytes = rep.SavedBytes
		rep.CacheOps = c.cache.Ops - opsStart
		return rep, false, nil
	}

	// Stage 2: hand the execution state to the server.
	reqQ := q
	if q.Kind == query.KNN {
		reqQ.K = q.K - len(out.Results)
	}
	req := &wire.Request{Client: c.cfg.ID, Q: reqQ, H: out.Remainder, Epoch: c.epoch}
	if c.cfg.FMRPeriod > 0 && c.sinceReport >= c.cfg.FMRPeriod {
		req.FMR = c.WindowFMR()
		req.HasFMR = true
		c.sinceReport = 0
		c.windowFalseMiss, c.windowCached = 0, 0
	}
	rep.UplinkBytes = c.cfg.Sizes.RequestBytes(req)

	resp, err := c.transport.RoundTrip(req)
	if err != nil {
		return rep, false, fmt.Errorf("core: remainder query failed: %w", err)
	}
	rep.DownlinkBytes = c.cfg.Sizes.ResponseBytes(resp)

	// Consistency first: apply the invalidation report, learn whether this
	// attempt's local results stood on stale items, track the root.
	stale := c.absorbConsistency(resp, &rep)
	if stale {
		_, total := c.cfg.Sizes.ResponseTimeline(c.cfg.Channel, rep.UplinkBytes, resp)
		rep.TotalTime = total
		rep.CacheOps = c.cache.Ops - opsStart
		c.cache.InsertResponse(resp)
		return rep, true, nil
	}

	// Accounting must precede insertion: cache membership still reflects
	// the state the query ran against.
	remoteBytes := 0
	for _, o := range resp.Objects {
		if _, ok := saved[o.ID]; ok {
			continue // join overlap: already confirmed locally
		}
		remoteBytes += o.Size
		if c.cache.HasObject(o.ID) {
			rep.FalseMissBytes += o.Size
		}
	}
	rep.ResultBytes = rep.SavedBytes + remoteBytes

	objDone, total := c.cfg.Sizes.ResponseTimeline(c.cfg.Channel, rep.UplinkBytes, resp)
	rep.TotalTime = total
	if rep.ResultBytes > 0 {
		weighted := 0.0
		for i, o := range resp.Objects {
			if _, ok := saved[o.ID]; ok {
				continue
			}
			weighted += float64(o.Size) * objDone[i]
		}
		rep.RespTime = weighted / float64(rep.ResultBytes)
	} else {
		// No result bytes at all: the user waits for the empty answer.
		rep.RespTime = total
	}

	for _, o := range resp.Objects {
		if _, ok := saved[o.ID]; !ok {
			rep.Results = append(rep.Results, o.ID)
		}
	}
	rep.Pairs = append(rep.Pairs, resp.Pairs...)

	c.cache.InsertResponse(resp)
	rep.CacheOps = c.cache.Ops - opsStart
	return rep, false, nil
}

// absorbConsistency applies a response's epoch, root and invalidation
// payload, returning whether the current attempt used now-stale items.
func (c *Client) absorbConsistency(resp *wire.Response, rep *Report) bool {
	if resp.RootID != rtree.InvalidNode {
		c.cfg.Root = query.NodeRef(resp.RootID, resp.RootMBR)
	}
	before := c.cache.Len()
	stale := c.cache.applyInvalidations(resp)
	if rep != nil {
		rep.Invalidated += before - c.cache.Len()
	}
	c.epoch = resp.Epoch
	return stale
}

// Sync pulls the server's invalidation report without running a query — a
// lightweight consistency heartbeat for clients that mostly answer locally.
// It returns the number of cache items dropped.
func (c *Client) Sync() (int, error) {
	resp, err := c.transport.RoundTrip(&wire.Request{Client: c.cfg.ID, Catalog: true, Epoch: c.epoch})
	if err != nil {
		return 0, fmt.Errorf("core: sync: %w", err)
	}
	before := c.cache.Len()
	c.absorbConsistency(resp, nil)
	return before - c.cache.Len(), nil
}

// Epoch returns the last server update epoch the client has seen.
func (c *Client) Epoch() uint64 { return c.epoch }

// WindowFMR returns the false-miss rate accumulated since the last report:
// P(o not in Rs | o in R and cached), byte-weighted.
func (c *Client) WindowFMR() float64 {
	if c.windowCached == 0 {
		return 0
	}
	return float64(c.windowFalseMiss) / float64(c.windowCached)
}

// objectSize returns the payload size of a cached object (0 if missing).
func (c *Client) objectSize(id rtree.ObjectID) int {
	if it, ok := c.cache.items[ObjKey(id)]; ok {
		return it.Size
	}
	return 0
}

// Provider returns a query.Provider view of the cache. The cooperative
// caching extension uses it to consult neighborhood peers' caches with the
// same machinery that serves the local one.
func (c *Cache) Provider() query.Provider { return cacheProvider{c} }

// cacheProvider adapts the proactive cache to the query engine: nodes expand
// into their cached cut elements, super entries are opaque (missing), and
// object availability is payload presence. Every successful access counts a
// hit for replacement metadata.
type cacheProvider struct{ c *Cache }

// Expand implements query.Provider.
func (p cacheProvider) Expand(ref query.Ref) ([]query.Ref, bool) {
	if ref.Kind != query.RefNode {
		return nil, false // super entries cannot be refined locally
	}
	it, ok := p.c.Node(ref.Node)
	if !ok {
		return nil, false
	}
	p.c.touch(it)
	out := make([]query.Ref, 0, len(it.Cut))
	for _, code := range it.Cut {
		out = append(out, it.Elems[code].Ref(ref.Node))
	}
	return out, true
}

// HaveObject implements query.Provider.
func (p cacheProvider) HaveObject(id rtree.ObjectID) bool {
	it, ok := p.c.Object(id)
	if ok {
		p.c.touch(it)
	}
	return ok
}
