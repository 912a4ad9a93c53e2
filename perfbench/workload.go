package main

import (
	"math/rand"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/geom"
	"repro/internal/mobility"
	"repro/internal/query"
	"repro/internal/rtree"
	"repro/internal/wire"
)

// spec is one workload's frozen parameters. The offered rates and p99
// limits were chosen on the commit that introduced this benchmark; see
// METRICS.md for the runs they came from. Changing any of them starts a new
// baseline.
type spec struct {
	name string
	// rate is the latency phase's offered load in user operations per
	// second, summed over all pacing loops.
	rate float64
	// p99Limit is the latency limit the rate was chosen to meet.
	p99Limit time.Duration
}

var specs = map[string]spec{
	"remote-read": {name: "remote-read", rate: 1000, p99Limit: 100 * time.Millisecond},
	"write-mix":   {name: "write-mix", rate: 50, p99Limit: 150 * time.Millisecond},
	"mobile-tour": {name: "mobile-tour", rate: 1500, p99Limit: 50 * time.Millisecond},
}

const (
	datasetSize = 123_593 // the paper's NE cardinality
	datasetSeed = 1       // the paper's NE is one fixed dataset
	shards      = 4
	thinkMean   = 50.0 // simulated seconds between a walker's queries

	satWindow     = 32 // operations in flight in the remote-read and write-mix saturation phase
	satPasses     = 2  // times the remote-read and write-mix saturation phase runs the query book
	tourClients   = 64
	tourWarmup    = 100 // queries per client before timing starts
	mixWarmup     = 400 // write-mix operations run at full load before timing starts
	poolObjects   = 4096
	moveBatch     = 16
	probeQueries  = 300
	probeBatches  = 1000 // write-probe update batches (remote-read, mobile-tour); even
	slotsPerPacer = 256
)

// seedFor derives an independent stream seed from the run seed.
func seedFor(seed int64, stream, salt uint64) int64 {
	z := uint64(seed) ^ (stream+1)*0x9e3779b97f4a7c15 ^ salt*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// Stream salts: each input stream draws from its own seed. The values are
// part of the inputs: changing one changes the data of every run.
const (
	saltPacer uint64 = 1
	saltTour  uint64 = 4
	saltPool  uint64 = 5
	saltProbe uint64 = 6
	saltPick  uint64 = 7
	saltBook  uint64 = 8
	saltOrder uint64 = 9
)

// bookOp is one fixed operation: a query, or (write-mix) the next move
// batch of a pool group.
type bookOp struct {
	q      query.Query
	update bool
}

// quantizeObjects snaps every MBR to float32, the precision the wire ships.
// Server, client caches and oracle then all hold the identical geometry,
// and update batches can echo an object's exact stored rectangle.
func quantizeObjects(objs []repro.Object) []repro.Object {
	for i := range objs {
		objs[i].MBR = q32Rect(objs[i].MBR)
	}
	return objs
}

func q32Point(p geom.Point) geom.Point { return geom.Pt(q32(p.X), q32(p.Y)) }

// The NE map is one dataset and its users one population, so remote-read
// and write-mix draw their queries from a fixed book: a cohort of DIR
// walkers seeded like the dataset, each contributing a run of consecutive
// queries along its path. The run seed shuffles the book and draws the
// arrival times. Per-seed walkers would make capacity measure which of the
// map's few dense city cores a sample hit: one join there returns two
// million pairs, and in trial runs capacity moved 2x between seeds.
func queryBook(n, walkers int, draw func(*cohort) bookOp) []bookOp {
	c := newCohort(seedFor(datasetSeed, 0, saltBook), walkers)
	book := make([]bookOp, n)
	for i := range book {
		book[i] = draw(c)
	}
	return book
}

// cohort yields query centres from a fixed set of DIR walkers, each
// advancing by an exponential think time per query.
type cohort struct {
	rng     *rand.Rand
	walkers []mobility.Model
	next    int
}

func newCohort(seed int64, n int) *cohort {
	rng := rand.New(rand.NewSource(seed))
	c := &cohort{rng: rng, walkers: make([]mobility.Model, n)}
	for i := range c.walkers {
		c.walkers[i] = mobility.NewDirected(mobility.Config{Speed: 1e-4}, rng)
	}
	return c
}

func (c *cohort) center() geom.Point {
	w := c.walkers[c.next%len(c.walkers)]
	c.next++
	return q32Point(w.Advance(c.rng.ExpFloat64() * thinkMean))
}

// joinDist is remote-read's join distance. At 0.004 a join in one of the
// map's dense city cores took up to 15.7 s and returned two million pairs
// on the commit that introduced this benchmark, which no run length can
// measure steadily; at 0.0002 the slowest join of a 1500-query sample took
// 0.48 s and joins were still most of the read work.
const joinDist = 0.0002

// remoteReadQuery draws the remote-read mix: 45% range, 45% kNN, 10% join.
func remoteReadQuery(c *cohort) query.Query {
	p := c.center()
	switch u := c.rng.Float64(); {
	case u < 0.45:
		return query.NewRange(q32Rect(geom.RectFromCenter(p, 0.02, 0.02)))
	case u < 0.90:
		return query.NewKNN(p, 1+c.rng.Intn(8))
	default:
		return query.NewJoin(q32Rect(geom.RectFromCenter(p, 0.04, 0.04)), q32(joinDist))
	}
}

// writeMixQuery draws the read half of write-mix: range or kNN.
func writeMixQuery(c *cohort) query.Query {
	p := c.center()
	if c.rng.Intn(2) == 0 {
		return query.NewRange(q32Rect(geom.RectFromCenter(p, 0.02, 0.02)))
	}
	return query.NewKNN(p, 1+c.rng.Intn(8))
}

// tour is one mobile-tour client's movement and query stream, as in
// examples/mobiletour: random waypoint at speed 1e-4, exponential think.
type tour struct {
	rng *rand.Rand
	mob mobility.Model
}

func newTour(seed int64) *tour {
	rng := rand.New(rand.NewSource(seed))
	return &tour{rng: rng, mob: mobility.NewRandomWaypoint(mobility.Config{Speed: 1e-4, PauseMean: thinkMean}, rng)}
}

func (t *tour) next() (geom.Point, query.Query) {
	p := q32Point(t.mob.Advance(t.rng.ExpFloat64() * thinkMean))
	switch t.rng.Intn(3) {
	case 0:
		return p, query.NewRange(q32Rect(geom.RectFromCenter(p, 0.002, 0.002)))
	case 1:
		return p, query.NewKNN(p, 1+t.rng.Intn(5))
	default:
		return p, query.NewJoin(q32Rect(geom.RectFromCenter(p, 0.004, 0.004)), q32(5e-5))
	}
}

// movePool is write-mix's moving-object pool: objects the benchmark
// inserts at set-up and then only moves, so the dataset size is constant.
// Objects move in fixed groups of moveBatch; a group's next batch is only
// issued once its previous one was acknowledged, so every move echoes the
// object's exact stored rectangle and each object has at most one mutation
// outstanding.
type movePool struct {
	objs   []repro.Object // last acknowledged rectangle of every pool object
	groups []moveGroup
}

type moveGroup struct {
	// busy is set by the group's owner when it issues a batch and cleared
	// by the goroutine that receives the acknowledgement.
	busy atomic.Bool
	rng  *rand.Rand
}

func newMovePool(seed int64, firstID rtree.ObjectID) *movePool {
	rng := rand.New(rand.NewSource(seedFor(seed, 0, saltPool)))
	p := &movePool{objs: make([]repro.Object, poolObjects), groups: make([]moveGroup, poolObjects/moveBatch)}
	for i := range p.objs {
		c := geom.Pt(0.02+0.96*rng.Float64(), 0.02+0.96*rng.Float64())
		w, h := 1e-4+4e-4*rng.Float64(), 1e-4+4e-4*rng.Float64()
		p.objs[i] = repro.Object{ID: firstID + rtree.ObjectID(i), MBR: q32Rect(geom.RectFromCenter(c, w, h)), Size: 2048 + rng.Intn(16384)}
	}
	for g := range p.groups {
		p.groups[g].rng = rand.New(rand.NewSource(seedFor(seed, uint64(g), saltPool)))
	}
	return p
}

// inserts returns the set-up batches that add the pool to the index.
func (p *movePool) inserts() [][]wire.UpdateOp {
	var out [][]wire.UpdateOp
	for i := 0; i < len(p.objs); i += 256 {
		var b []wire.UpdateOp
		for _, o := range p.objs[i:min(i+256, len(p.objs))] {
			b = append(b, wire.UpdateOp{Kind: wire.UpdateInsert, Obj: o.ID, To: o.MBR, Size: o.Size})
		}
		out = append(out, b)
	}
	return out
}

// moves builds group g's next batch from its acknowledged rectangles. The
// caller owns g and must have marked it busy; commit records the targets
// once the batch is acknowledged.
func (p *movePool) moves(g int) []wire.UpdateOp {
	grp := &p.groups[g]
	ops := make([]wire.UpdateOp, moveBatch)
	for i := range ops {
		o := p.objs[g*moveBatch+i]
		c := o.MBR.Center()
		step := func(v float64) float64 { return min(max(v+(grp.rng.Float64()-0.5)*0.004, 0.01), 0.99) }
		to := q32Rect(geom.RectFromCenter(geom.Pt(step(c.X), step(c.Y)), o.MBR.Width(), o.MBR.Height()))
		ops[i] = wire.UpdateOp{Kind: wire.UpdateMove, Obj: o.ID, From: o.MBR, To: to}
	}
	return ops
}

func (p *movePool) commit(g int, ops []wire.UpdateOp) {
	for i, op := range ops {
		p.objs[g*moveBatch+i].MBR = op.To
	}
}
