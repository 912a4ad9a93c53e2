// Netclient: the full client/server protocol over a real TCP socket — the
// architecture of Figure 3 with an actual wire in the middle. It starts an
// in-process prodb-style server on a loopback port, connects a proactive-
// caching client through repro.Dial, and runs a warm-up sequence.
//
// To run against a standalone server instead:
//
//	go run ./cmd/prodb -addr :7001 &
//	go run ./examples/netclient -addr 127.0.0.1:7001
//
// To put a server under load, use cmd/proload (-addr for a live prodb).
package main

import (
	"flag"
	"fmt"
	"log"
	"net"

	"repro"
)

func main() {
	addr := flag.String("addr", "", "connect to an existing prodb server instead of self-hosting")
	flag.Parse()

	target := *addr
	if target == "" {
		// Self-host a server on a random loopback port.
		srv := repro.NewServer(repro.GenerateNE(15_000, 9), repro.ServerConfig{})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		go func() { _ = srv.Serve(ln) }()
		target = ln.Addr().String()
		fmt.Printf("self-hosted server on %s\n", target)
	}

	transport, err := repro.Dial(target)
	if err != nil {
		log.Fatal(err)
	}
	cl, err := repro.NewClient(transport, repro.ClientConfig{CacheBytes: 1 << 21})
	if err != nil {
		log.Fatal(err)
	}

	me := repro.Pt(0.5, 0.5)
	cl.SetPosition(me)
	for round := 1; round <= 3; round++ {
		rep, err := cl.Query(repro.NewKNN(me, 4))
		if err != nil {
			log.Fatal(err)
		}
		mode := "remote"
		if rep.LocalOnly {
			mode = "LOCAL"
		}
		fmt.Printf("round %d: 4-NN %-6s results=%d hit=%3.0f%% up=%dB down=%dB\n",
			round, mode, len(rep.Results), rep.HitRate()*100, rep.UplinkBytes, rep.DownlinkBytes)
	}
	rep, err := cl.Query(repro.NewRange(repro.RectFromCenter(me, 0.01, 0.01)))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("range around the warm spot: %d results, hit=%3.0f%%\n",
		len(rep.Results), rep.HitRate()*100)
}
