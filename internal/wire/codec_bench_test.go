package wire

import (
	"math/rand"
	"net"
	"sync"
	"testing"

	"repro/internal/bpt"
	"repro/internal/geom"
	"repro/internal/rtree"
)

// benchResponse builds a representative APRO response: a few dozen result
// objects plus a supporting index of partition-tree cuts — the shape of the
// dominant downlink message in the paper's experiments.
func benchResponse() *Response {
	r := rand.New(rand.NewSource(42))
	resp := &Response{K: 8, Epoch: 12345, RootID: 1, RootMBR: geom.R(0, 0, 1, 1)}
	for i := 0; i < 40; i++ {
		p := geom.Pt(r.Float64(), r.Float64())
		resp.Objects = append(resp.Objects, ObjectRep{
			ID:      rtree.ObjectID(r.Intn(100_000) + 1),
			MBR:     geom.RectFromCenter(p, 0.001, 0.001),
			Size:    200 + r.Intn(4000),
			Payload: i%5 != 0,
		})
	}
	codes := []bpt.Code{"0", "10", "110", "111", "00", "01", "1010"}
	for n := 0; n < 8; n++ {
		rep := NodeRep{ID: rtree.NodeID(n + 1), Level: 1 + n%3}
		for e := 0; e < 24; e++ {
			p := geom.Pt(r.Float64(), r.Float64())
			ce := CutElem{Code: codes[e%len(codes)], MBR: geom.RectFromCenter(p, 0.01, 0.01)}
			switch e % 3 {
			case 0:
				ce.Super = true
			case 1:
				ce.Child = rtree.NodeID(r.Intn(1000) + 1)
			default:
				ce.Obj = rtree.ObjectID(r.Intn(100_000) + 1)
			}
			rep.Elems = append(rep.Elems, ce)
		}
		resp.Index = append(resp.Index, rep)
	}
	for i := 0; i < 6; i++ {
		resp.InvalidNodes = append(resp.InvalidNodes, rtree.NodeID(r.Intn(1000)+1))
		resp.InvalidObjs = append(resp.InvalidObjs, rtree.ObjectID(r.Intn(100_000)+1))
	}
	return resp
}

// BenchmarkCodecBinary measures the codec on the representative APRO
// response, reporting encoded bytes per message alongside ns/op.
func BenchmarkCodecBinary(b *testing.B) {
	resp := benchResponse()

	b.Run("encode", func(b *testing.B) {
		buf := EncodeResponse(nil, resp)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf = EncodeResponse(buf[:0], resp)
		}
		b.ReportMetric(float64(len(buf)), "bytes/msg")
	})

	b.Run("decode", func(b *testing.B) {
		data := EncodeResponse(nil, resp)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := DecodeResponse(data); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTransportThroughput measures queries/sec over one real TCP
// connection against a NetServer: requests serialized one round trip at a
// time, and pipelined with many requests in flight. The delta is what
// pipelining buys.
func BenchmarkTransportThroughput(b *testing.B) {
	resp := benchResponse()
	handler := func(req *Request) (*Response, error) {
		out := *resp
		out.Epoch = req.Epoch
		return &out, nil
	}
	start := func(b *testing.B) (string, func()) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		srv := NewNetServer(handler, ServeConfig{})
		go func() { _ = srv.Serve(ln) }()
		return ln.Addr().String(), func() { srv.Close() }
	}

	b.Run("serial-binary", func(b *testing.B) {
		addr, stop := start(b)
		defer stop()
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			b.Fatal(err)
		}
		defer conn.Close()
		bc, err := NewBinaryClientConn(conn)
		if err != nil {
			b.Fatal(err)
		}
		var mu sync.Mutex // forbid pipelining: one request per round trip
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				mu.Lock()
				_, err := bc.RoundTrip(&Request{Catalog: true})
				mu.Unlock()
				if err != nil {
					b.Error(err)
					return
				}
			}
		})
	})

	b.Run("pipelined-binary", func(b *testing.B) {
		addr, stop := start(b)
		defer stop()
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			b.Fatal(err)
		}
		defer conn.Close()
		bc, err := NewBinaryClientConn(conn)
		if err != nil {
			b.Fatal(err)
		}
		b.SetParallelism(8) // many workers share the one connection
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, err := bc.RoundTrip(&Request{Catalog: true}); err != nil {
					b.Error(err)
					return
				}
			}
		})
	})
}
