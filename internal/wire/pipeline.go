package wire

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"
)

// ErrProtocolMismatch is returned by NewBinaryClientConn when the peer does
// not answer the binary handshake with a matching preamble: it hung up,
// answered garbage, or speaks another protocol version. There is no other
// protocol to fall back to, so dialers report it as a failed dial.
var ErrProtocolMismatch = errors.New("wire: peer does not speak the binary protocol")

// BinaryClientConn is a pipelined Transport over the binary protocol: any
// number of goroutines may call RoundTrip concurrently on one connection,
// each request is tagged with a fresh correlation id, and responses are
// matched back to their callers regardless of the order the server answers
// in. This is the request pipelining the paper's transmission-cost model
// rewards: one connection, many queries in flight, no head-of-line
// round-trip wait between them.
type BinaryClientConn struct {
	rw io.ReadWriter

	wmu    sync.Mutex // serializes frame writes and id assignment
	bw     *bufio.Writer
	nextID uint64

	pmu     sync.Mutex // guards pending and connErr
	pending map[uint64]chan frameResult
	connErr error
}

type frameResult struct {
	resp *Response
	err  error
}

// NewBinaryClientConn performs the binary handshake on rw and starts the
// response reader. It returns ErrProtocolMismatch (possibly wrapped) when
// the peer answers with anything but the expected preamble; the caller
// should then close rw.
func NewBinaryClientConn(rw io.ReadWriter) (*BinaryClientConn, error) {
	return NewBinaryClientConnRole(rw, RoleClient)
}

// NewBinaryClientConnRole is NewBinaryClientConn announcing a specific
// connection role in the handshake preamble (an edge proxy's upstream pool
// uses RoleEdge). Servers ack with the plain client preamble either way.
func NewBinaryClientConnRole(rw io.ReadWriter, role byte) (*BinaryClientConn, error) {
	preamble := handshakePreamble(role)
	bw := bufio.NewWriter(rw)
	if _, err := bw.Write(preamble[:]); err != nil {
		return nil, fmt.Errorf("wire: handshake send: %w", err)
	}
	if err := bw.Flush(); err != nil {
		return nil, fmt.Errorf("wire: handshake send: %w", err)
	}
	br := bufio.NewReader(rw)
	var ack [len(handshakeMagic)]byte
	if _, err := io.ReadFull(br, ack[:]); err != nil {
		return nil, fmt.Errorf("%w: reading preamble ack: %v", ErrProtocolMismatch, err)
	}
	if !bytes.Equal(ack[:4], handshakeMagic[:4]) {
		return nil, fmt.Errorf("%w: bad preamble % x", ErrProtocolMismatch, ack)
	}
	if ack[4] != ProtoVersion {
		return nil, fmt.Errorf("%w: peer speaks version %d, want %d", ErrProtocolMismatch, ack[4], ProtoVersion)
	}
	c := &BinaryClientConn{
		rw:      rw,
		bw:      bw,
		pending: make(map[uint64]chan frameResult),
	}
	go c.readLoop(br)
	return c, nil
}

// RoundTrip implements Transport. Concurrent calls do not serialize on the
// round trip: each caller's request is framed and flushed immediately, and
// the caller only blocks until its own response arrives.
func (c *BinaryClientConn) RoundTrip(req *Request) (*Response, error) {
	ch := make(chan frameResult, 1)

	c.wmu.Lock()
	c.pmu.Lock()
	if err := c.connErr; err != nil {
		c.pmu.Unlock()
		c.wmu.Unlock()
		return nil, err
	}
	c.nextID++
	id := c.nextID
	c.pending[id] = ch
	c.pmu.Unlock()
	body := EncodeRequest(nil, req)
	err := writeFrame(c.bw, frameRequest, id, body)
	c.wmu.Unlock()
	if err != nil {
		err = fmt.Errorf("wire: send request: %w", err)
		c.fail(err)
		return nil, err
	}

	res := <-ch
	return res.resp, res.err
}

// Close tears down the transport; if the underlying stream is an io.Closer
// (a net.Conn is) it is closed, which also stops the read loop. In-flight
// round trips fail with the close error.
func (c *BinaryClientConn) Close() error {
	c.fail(errors.New("wire: connection closed"))
	if cl, ok := c.rw.(io.Closer); ok {
		return cl.Close()
	}
	return nil
}

// readLoop receives frames and correlates them to waiting callers by id.
func (c *BinaryClientConn) readLoop(br *bufio.Reader) {
	for {
		typ, id, body, err := readFrame(br)
		if err != nil {
			c.fail(fmt.Errorf("wire: read response: %w", err))
			return
		}
		switch typ {
		case frameResponse:
			resp, derr := DecodeResponse(body)
			if derr != nil {
				// The frame boundary held, so the stream is still in
				// sync; only this request is poisoned.
				c.deliver(id, frameResult{err: fmt.Errorf("wire: decode response: %w", derr)})
				continue
			}
			c.deliver(id, frameResult{resp: resp})
		case frameError:
			msg := fmt.Errorf("wire: server error: %s", body)
			if id == 0 {
				// Connection-scoped error (e.g. the server is at its
				// connection limit): fatal for every request on this conn.
				c.fail(msg)
				return
			}
			c.deliver(id, frameResult{err: msg})
		default:
			c.fail(fmt.Errorf("wire: unexpected frame type %d", typ))
			return
		}
	}
}

// deliver hands a result to the caller waiting on id; a response for an
// unknown id is a protocol violation and poisons the connection.
func (c *BinaryClientConn) deliver(id uint64, res frameResult) {
	c.pmu.Lock()
	ch, ok := c.pending[id]
	if ok {
		delete(c.pending, id)
	}
	c.pmu.Unlock()
	if !ok {
		c.fail(fmt.Errorf("wire: response for unknown request id %d", id))
		return
	}
	ch <- res
}

// fail marks the connection broken and unblocks every pending caller. The
// first error wins; later calls are no-ops.
func (c *BinaryClientConn) fail(err error) {
	c.pmu.Lock()
	defer c.pmu.Unlock()
	if c.connErr != nil {
		return
	}
	c.connErr = err
	for id, ch := range c.pending {
		delete(c.pending, id)
		ch <- frameResult{err: err}
	}
}
