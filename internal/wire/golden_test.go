package wire

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// The golden files under testdata/ are the canonical bytes of the binary
// wire format, one file per message shape. Any codec change that moves the
// encoding fails these tests; an intentional format change must bump
// ProtoVersion and regenerate with
//
//	go test ./internal/wire -run TestGolden -update

var updateGolden = flag.Bool("update", false, "rewrite golden wire-format files")

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("wire format drifted from %s\n got: %s\nwant: %s",
			path, hex.EncodeToString(got), hex.EncodeToString(want))
	}
}

func TestGoldenRequests(t *testing.T) {
	for name, req := range testRequests() {
		enc := EncodeRequest(nil, req)
		checkGolden(t, "req_"+name+".bin", enc)
		// The checked-in bytes must also decode back to the message (not
		// just byte-compare), so a drifted decoder cannot hide behind a
		// drifted encoder.
		got, err := DecodeRequest(enc)
		if err != nil {
			t.Errorf("%s: decode golden: %v", name, err)
			continue
		}
		if want := canonRequest(req); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: golden decode mismatch\n got %+v\nwant %+v", name, got, want)
		}
	}
}

func TestGoldenResponses(t *testing.T) {
	for name, resp := range testResponses() {
		enc := EncodeResponse(nil, resp)
		checkGolden(t, "resp_"+name+".bin", enc)
		got, err := DecodeResponse(enc)
		if err != nil {
			t.Errorf("%s: decode golden: %v", name, err)
			continue
		}
		if want := canonResponse(resp); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: golden decode mismatch\n got %+v\nwant %+v", name, got, want)
		}
	}
}

// TestGoldenFrame locks the frame layout (length prefix, type byte,
// correlation id) and the handshake preamble bytes.
func TestGoldenFrame(t *testing.T) {
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	if _, err := bw.Write(handshakeMagic[:]); err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(bw, frameRequest, 1, EncodeRequest(nil, testRequests()["catalog"])); err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(bw, frameError, 7, []byte("boom")); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "frame_stream.bin", buf.Bytes())
}

// TestGoldenEdgeHandshake locks the edge-role preamble: identical to the
// client preamble except byte 5 = RoleEdge. The server's ack stays the plain
// client preamble (covered by frame_stream.bin), so old clients never see a
// role byte they did not send.
func TestGoldenEdgeHandshake(t *testing.T) {
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	preamble := handshakePreamble(RoleEdge)
	if _, err := bw.Write(preamble[:]); err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(bw, frameRequest, 1, EncodeRequest(nil, testRequests()["catalog"])); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "frame_stream_edge.bin", buf.Bytes())

	// Both role preambles must negotiate binary; the roles must differ.
	for _, tc := range []struct {
		role byte
	}{{RoleClient}, {RoleEdge}} {
		p := handshakePreamble(tc.role)
		role, ok := readPreamble(bufio.NewReader(bytes.NewReader(p[:])))
		if !ok || role != tc.role {
			t.Errorf("preamble role %d: ok=%v role=%d", tc.role, ok, role)
		}
	}
	// An unknown role byte must be refused like any non-preamble stream
	// (NetServer closes it), not decode as a binary peer with a garbled role.
	bad := handshakePreamble(0x7f)
	if _, ok := readPreamble(bufio.NewReader(bytes.NewReader(bad[:]))); ok {
		t.Error("unknown role accepted as a valid preamble")
	}
}
