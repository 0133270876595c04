package fileserver

import (
	"errors"
	"fmt"
	"time"

	"altoos/internal/ether"
	"altoos/internal/pup"
	"altoos/internal/trace"
)

// Client runs one transfer at a time against a remote server, over one
// reliable connection. Several Clients can share one endpoint (one station):
// each dials its own connection and the ids keep them apart.
type Client struct {
	ep   *pup.Endpoint
	conn *pup.Conn

	outq    [][]ether.Word // pending outbound messages (store traffic)
	busy    bool
	done    bool
	failure error
	in      packed        // fetch accumulator
	data    []byte        // the fetched bytes, unpacked when the transfer ends
	started time.Duration // transfer start on the simulated clock
	flow    int64         // this transfer's causal flow id (0: tracing off)
}

// NewClient builds a client on a transport endpoint.
func NewClient(ep *pup.Endpoint) *Client {
	return &Client{ep: ep}
}

// Connect dials the server. Data may be queued immediately; the open
// handshake and everything after it happen during Poll.
func (c *Client) Connect(server ether.Addr) error {
	conn, err := c.ep.Dial(server)
	if err != nil {
		return err
	}
	c.conn = conn
	c.rec().Add(cClientDial, 1)
	return nil
}

// rec reaches the station's flight recorder (nil when tracing is off).
func (c *Client) rec() *trace.Recorder { return c.ep.Station().TraceRecorder() }

// now reads the station's simulated clock.
func (c *Client) now() time.Duration { return c.ep.Station().Clock().Now() }

// Conn exposes the underlying connection (state and error inspection).
func (c *Client) Conn() *pup.Conn { return c.conn }

// Fetch asks the server for a named file. Poll until Done, then Result.
func (c *Client) Fetch(name string) error {
	if err := c.begin(); err != nil {
		return err
	}
	c.outq = append(c.outq, stringMessage(MsgFetch, name))
	return nil
}

// Store begins pushing data to the server under name. The entire transfer
// is queued here, packed into words once, and drained by Poll as the send
// window allows; Done turns true when the server confirms the file hit the
// disk.
func (c *Client) Store(name string, data []byte) error {
	if err := c.begin(); err != nil {
		return err
	}
	c.outq = append(c.outq, stringMessage(MsgStore, name))
	c.outq = byteMessages(c.outq, data)
	return nil
}

func (c *Client) begin() error {
	if c.conn == nil {
		return errors.New("fileserver: not connected")
	}
	if c.busy && !c.done {
		return ErrBusy
	}
	c.busy, c.done, c.failure, c.data = true, false, nil, nil
	c.in.reset()
	c.started = c.now()
	// Each transfer is one causal flow: allocated here, carried by every
	// packet of the request (retransmits included), adopted by the server's
	// session, and echoed on every reply and ack.
	c.flow = c.rec().NextFlow()
	c.conn.SetFlow(c.flow)
	return nil
}

// Poll advances the transfer: one transport poll, pending messages pushed,
// inbound messages consumed. Returns whether it did any work.
func (c *Client) Poll() (bool, error) {
	worked, err := c.ep.Poll()
	if err != nil {
		return true, err
	}
	if c.conn == nil {
		return worked, nil
	}
	if cerr := c.conn.Err(); cerr != nil && !c.done {
		c.finish(cerr)
		return worked, nil
	}
	// Avail batches the pushes; ErrWindowFull stays as a backstop only.
	for len(c.outq) > 0 && c.conn.Avail() > 0 {
		err := c.conn.Send(c.outq[0])
		if errors.Is(err, pup.ErrWindowFull) {
			break
		}
		if err != nil {
			c.finish(err)
			return true, nil
		}
		c.outq = c.outq[1:]
		worked = true
	}
	for {
		msg, ok := c.conn.Recv()
		if !ok {
			break
		}
		worked = true
		c.handle(msg)
		ether.Free(msg) // handle copies out what it keeps
	}
	return worked, nil
}

// handle processes one server message.
func (c *Client) handle(msg []ether.Word) {
	if len(msg) == 0 || !c.busy || c.done {
		return
	}
	switch msg[0] {
	case MsgData:
		if err := c.in.add(msg); err != nil {
			c.finish(err)
		}
	case MsgEnd:
		if total, ok := unpackTotal(msg); !ok || total != c.in.n {
			c.finish(fmt.Errorf("%w: fetch length mismatch", ErrProtocol))
			return
		}
		c.finish(nil)
	case MsgOK:
		c.finish(nil)
	case MsgError:
		text, _ := ether.UnpackString(msg[1:])
		c.finish(fmt.Errorf("%w: %s", ErrRemote, text))
	}
}

// finish ends the transfer. Whatever data arrived is unpacked once, here:
// bytes appear only at the API edge.
func (c *Client) finish(err error) {
	c.done = true
	c.failure = err
	c.data = ether.AppendBytes(nil, c.in.words, c.in.n)
	if c.busy {
		c.rec().EmitSpanFlow(c.started, c.now()-c.started, trace.KindFSSession, "client",
			int64(c.conn.Remote()), int64(c.in.n), c.flow)
	}
	c.rec().Add(cClientDone, 1)
}

// Done reports whether the transfer completed (or failed).
func (c *Client) Done() bool { return c.done }

// Result returns the transfer's outcome once Done: the fetched bytes (nil
// for a store) and the failure, if any.
func (c *Client) Result() ([]byte, error) {
	if !c.done {
		return nil, errors.New("fileserver: transfer still in progress")
	}
	c.busy = false
	return c.data, c.failure
}

// Close begins a graceful close of the connection; poll until the conn
// reports StateClosed.
func (c *Client) Close() error {
	if c.conn == nil {
		return nil
	}
	return c.conn.Close()
}
