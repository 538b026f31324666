package serve

import (
	"bufio"
	"fmt"
	"net"
	"sort"
	"sync"

	"lmbalance/internal/wire"
)

// Client is one connection to a node's serving front-end. Submit is
// safe for concurrent use; a reader goroutine collects CAccepted and
// CDone frames and accumulates per-job sojourns from the server's own
// timestamps (so the measurement needs no clock sync with the server).
type Client struct {
	nc net.Conn

	wmu sync.Mutex // serializes writers; guards buf
	buf []byte     // encoded CSubmit frames not yet written

	mu        sync.Mutex
	nextTag   uint64
	submitted int64
	completed int64
	sojourns  []float64 // seconds, server-stamped, one per completed job
	readErr   error

	done sync.WaitGroup
}

// Dial connects to a Server at addr.
func Dial(addr string) (*Client, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("serve: dial %s: %w", addr, err)
	}
	c := &Client{nc: nc}
	c.done.Add(1)
	go c.readLoop()
	return c, nil
}

// Submit sends one job of the given number of unit work items (values
// below 1 are submitted as 1, matching the server's clamp): one frame,
// one write to the connection.
func (c *Client) Submit(units int) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.stage(units)
	return c.flush()
}

// submitLater stages one job to leave with the next flushPending (or
// sooner, once a write's worth has piled up). Drive batches the
// arrivals that are already due this way, so a generator that has
// fallen behind pays one write for all of them, not one each.
func (c *Client) submitLater(units int) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.stage(units)
	if len(c.buf) < writeBatchBytes {
		return nil
	}
	return c.flush()
}

// flushPending writes whatever submitLater has staged.
func (c *Client) flushPending() error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.flush()
}

// stage appends one CSubmit frame to the pending write and counts the
// job as submitted. The caller holds wmu.
func (c *Client) stage(units int) {
	if units < 1 {
		units = 1
	}
	c.mu.Lock()
	c.nextTag++
	tag := c.nextTag
	c.submitted++
	c.mu.Unlock()
	c.buf = wire.AppendCFrame(c.buf, wire.CMsg{Kind: wire.CSubmit, Job: tag, Units: units})
}

// flush writes the staged frames, if any, with one write. The caller
// holds wmu.
func (c *Client) flush() error {
	if len(c.buf) == 0 {
		return nil
	}
	_, err := c.nc.Write(c.buf)
	c.buf = c.buf[:0]
	return err
}

func (c *Client) readLoop() {
	defer c.done.Done()
	br := bufio.NewReader(c.nc)
	for {
		m, _, err := wire.ReadCFrame(br)
		if err != nil {
			c.mu.Lock()
			c.readErr = err
			c.mu.Unlock()
			return
		}
		switch m.Kind {
		case wire.CDone:
			c.mu.Lock()
			c.completed++
			c.sojourns = append(c.sojourns, float64(m.DoneNS-m.SubmitNS)/1e9)
			c.mu.Unlock()
		}
	}
}

// Submitted returns the number of jobs sent so far.
func (c *Client) Submitted() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.submitted
}

// Completed returns the number of completion notifications received.
func (c *Client) Completed() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.completed
}

// Sojourns returns a copy of the per-job server-observed sojourns, in
// seconds, in completion order.
func (c *Client) Sojourns() []float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]float64, len(c.sojourns))
	copy(out, c.sojourns)
	return out
}

// Close tears down the connection and waits for the reader to exit.
func (c *Client) Close() error {
	err := c.nc.Close()
	c.done.Wait()
	return err
}

// Quantile returns the exact q-quantile (0 ≤ q ≤ 1) of a sample set,
// sorting a copy. NaN-free inputs assumed; empty input returns 0.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	i := int(q * float64(len(s)-1))
	if i < 0 {
		i = 0
	}
	if i > len(s)-1 {
		i = len(s) - 1
	}
	return s[i]
}
