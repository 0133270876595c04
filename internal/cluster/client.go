package cluster

// Client is the cluster's client-side library: it routes by the placement
// map, writes through every replica of a file's shard, and reads from any
// one of them with failover. It is deliberately thin — there is no cluster
// master to talk to, so "the cluster" from a client's seat is just the
// placement arithmetic plus ordinary fileserver sessions.

import (
	"errors"
	"fmt"

	"altoos/internal/fileserver"
	"altoos/internal/pup"
	"altoos/internal/trace"
)

// WaitFunc drives one fileserver transfer to completion on the client's
// fleet machine: poll the transfer (and whatever else the machine must keep
// alive) until Done, then return Result's error. It is a fleet.PollUntil
// loop, such as PollUntil(m.Sync, m.Idle, fc.Poll, fc.Done); the caller
// supplies it so it can poll more or trace its parks.
type WaitFunc func(*fileserver.Client) error

// Client talks to a cluster through one transport endpoint.
type Client struct {
	place Placement
	ep    *pup.Endpoint
	conns []*fileserver.Client // lazily dialed, indexed shard*Replicas+idx

	// skip, when set, makes Store silently bypass a replica — the fault
	// injection hook that manufactures a replica that missed an overwrite.
	skip func(shard, replica int) bool
}

// NewClient builds a cluster client for the given placement.
func NewClient(place Placement, ep *pup.Endpoint) *Client {
	return &Client{
		place: place,
		ep:    ep,
		conns: make([]*fileserver.Client, place.Shards*place.Replicas),
	}
}

// SetSkip installs the store-bypass hook (nil clears it).
func (c *Client) SetSkip(skip func(shard, replica int) bool) { c.skip = skip }

// rec reaches the endpoint's flight recorder (nil when tracing is off).
func (c *Client) rec() *trace.Recorder { return c.ep.Station().TraceRecorder() }

// conn returns the lazily-dialed session to one replica.
func (c *Client) conn(shard, idx int) (*fileserver.Client, error) {
	slot := shard*c.place.Replicas + idx
	if c.conns[slot] == nil {
		fc := fileserver.NewClient(c.ep)
		if err := fc.Connect(c.place.ServerAddr(shard, idx)); err != nil {
			return nil, err
		}
		c.conns[slot] = fc
	}
	return c.conns[slot], nil
}

// Store writes data under name through every replica of the name's shard,
// in replica-index order, waiting each copy onto the disk before the next.
// Every replica must confirm (minus any the skip hook bypasses): a cluster
// write is durable on the whole group or it is an error.
func (c *Client) Store(name string, data []byte, wait WaitFunc) error {
	shard := c.place.Shard(name)
	stored := 0
	for idx := 0; idx < c.place.Replicas; idx++ {
		if c.skip != nil && c.skip(shard, idx) {
			continue
		}
		fc, err := c.conn(shard, idx)
		if err != nil {
			return fmt.Errorf("cluster: dial shard%d/r%d: %w", shard, idx, err)
		}
		if err := fc.Store(name, data); err != nil {
			return err
		}
		if err := wait(fc); err != nil {
			return fmt.Errorf("cluster: store %q on shard%d/r%d: %w", name, shard, idx, err)
		}
		stored++
	}
	if stored == 0 {
		return fmt.Errorf("cluster: store %q: every replica skipped", name)
	}
	c.rec().Add(cClientStore, 1)
	return nil
}

// Fetch reads name from its shard, trying replicas in index order starting
// at a name-determined offset (spreading read load across the group) and
// failing over to the next on error.
func (c *Client) Fetch(name string, wait WaitFunc) ([]byte, error) {
	shard := c.place.Shard(name)
	first := c.place.Shard(name+"#read") % c.place.Replicas
	var lastErr error
	for k := 0; k < c.place.Replicas; k++ {
		idx := (first + k) % c.place.Replicas
		fc, err := c.conn(shard, idx)
		if err != nil {
			lastErr = err
			continue
		}
		if err := fc.Fetch(name); err != nil {
			lastErr = err
			continue
		}
		if err := wait(fc); err != nil {
			lastErr = err
			continue
		}
		data, err := fc.Result()
		if err != nil {
			lastErr = err
			continue
		}
		c.rec().Add(cClientFetch, 1)
		return data, nil
	}
	if lastErr == nil {
		lastErr = errors.New("cluster: no replicas")
	}
	return nil, fmt.Errorf("cluster: fetch %q: %w", name, lastErr)
}

// Close begins a graceful close on every dialed session; the caller keeps
// polling until the conns report closed. A client program closes its
// sessions this way before it returns: a session left open outlives the
// engine run, and its server gives up on it.
func (c *Client) Close() []*fileserver.Client {
	var open []*fileserver.Client
	for _, fc := range c.conns {
		if fc == nil {
			continue
		}
		if fc.Close() == nil {
			open = append(open, fc)
		}
	}
	return open
}
