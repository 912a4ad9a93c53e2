package wire

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/query"
	"repro/internal/rtree"
)

func TestRequestBytes(t *testing.T) {
	m := DefaultSizeModel()
	req := &Request{Q: query.NewKNN(geom.Pt(0.5, 0.5), 3)}
	base := m.RequestBytes(req)
	if base != m.MsgHeader+m.Query {
		t.Errorf("base request = %d", base)
	}
	req.H = []query.QueuedElem{
		{Elem: query.Single(query.NodeRef(1, geom.R(0, 0, 1, 1)))},
		{Elem: query.PairOf(query.NodeRef(1, geom.R(0, 0, 1, 1)), query.NodeRef(2, geom.R(0, 0, 1, 1)))},
	}
	if got := m.RequestBytes(req); got != base+m.Elem+m.PairElem {
		t.Errorf("with H = %d, want %d", got, base+m.Elem+m.PairElem)
	}
	req.H = nil
	req.CachedIDs = make([]rtree.ObjectID, 10)
	if got := m.RequestBytes(req); got != base+10*m.ID {
		t.Errorf("with ids = %d", got)
	}
	req.CachedIDs = nil
	req.SemWindows = []geom.Rect{{}, {}}
	if got := m.RequestBytes(req); got != base+32 {
		t.Errorf("with windows = %d", got)
	}
	req.SemWindows = nil
	req.HasFMR = true
	if got := m.RequestBytes(req); got != base+m.Feedback {
		t.Errorf("with fmr = %d", got)
	}
}

func TestResponseBytes(t *testing.T) {
	m := DefaultSizeModel()
	resp := &Response{
		Objects: []ObjectRep{
			{ID: 1, Size: 1000, Payload: true},
			{ID: 2, Size: 5000, Payload: false}, // header only
		},
		Pairs: [][2]rtree.ObjectID{{1, 2}},
		Index: []NodeRep{
			{ID: 3, Elems: make([]CutElem, 4)},
		},
	}
	want := m.MsgHeader + 2*m.ObjHeader + 1000 + m.PairID + m.NodeHeader + 4*m.Entry
	if got := m.ResponseBytes(resp); got != want {
		t.Errorf("ResponseBytes = %d, want %d", got, want)
	}
	if got := m.IndexBytes(resp); got != m.NodeHeader+4*m.Entry {
		t.Errorf("IndexBytes = %d", got)
	}
}

func TestResponseTimeline(t *testing.T) {
	m := DefaultSizeModel()
	ch := Channel{BytesPerSec: 1000, Latency: 0.1}
	resp := &Response{
		Objects: []ObjectRep{
			{ID: 1, Size: 1000, Payload: true},
			{ID: 2, Size: 2000, Payload: true},
		},
	}
	objDone, total := m.ResponseTimeline(ch, 500, resp)
	if len(objDone) != 2 {
		t.Fatal("need one completion per object")
	}
	// Uplink 500B at 1000B/s + latency, plus downlink latency.
	start := 0.1 + 0.5 + 0.1
	want0 := start + float64(m.MsgHeader+m.ObjHeader+1000)/1000
	if math.Abs(objDone[0]-want0) > 1e-9 {
		t.Errorf("objDone[0] = %v, want %v", objDone[0], want0)
	}
	if objDone[1] <= objDone[0] {
		t.Error("completions must be monotone")
	}
	if total < objDone[1] {
		t.Error("total precedes last object")
	}
	// Payload=false objects add only their header.
	resp.Objects[1].Payload = false
	objDone2, _ := m.ResponseTimeline(ch, 500, resp)
	if objDone2[1] >= objDone[1] {
		t.Error("headerless object should complete sooner")
	}
}

func TestTransferTimeZeroBandwidth(t *testing.T) {
	ch := Channel{BytesPerSec: 0, Latency: 0.2}
	if got := ch.TransferTime(1_000_000); got != 0.2 {
		t.Errorf("zero-bandwidth transfer = %v", got)
	}
}

func TestDefaultChannel(t *testing.T) {
	ch := DefaultChannel()
	if ch.BytesPerSec != 48000 {
		t.Errorf("default channel %v B/s, want 48000 (384 Kbps)", ch.BytesPerSec)
	}
}

func TestCutElemRef(t *testing.T) {
	e := CutElem{Code: "01", MBR: geom.R(0, 0, 1, 1), Super: true}
	if r := e.Ref(7); r.Kind != query.RefSuper || r.Node != 7 || r.Code != "01" {
		t.Errorf("super ref = %+v", r)
	}
	e = CutElem{Child: 9, MBR: geom.R(0, 0, 1, 1)}
	if r := e.Ref(7); r.Kind != query.RefNode || r.Node != 9 {
		t.Errorf("node ref = %+v", r)
	}
	e = CutElem{Obj: 4, MBR: geom.R(0, 0, 1, 1)}
	if r := e.Ref(7); r.Kind != query.RefObject || r.Obj != 4 {
		t.Errorf("obj ref = %+v", r)
	}
}
