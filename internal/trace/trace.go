// Package trace collects the execution metrics the paper's evaluation plots:
// per-node bandwidth utilization over time (Figures 5 and 6), message and
// byte totals, and convergence times (Figure 4). A Collector is attached to
// a simulation or deployment run and queried afterwards.
package trace

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// NodeStats aggregates one node's traffic.
type NodeStats struct {
	BytesSent, BytesRecv int64
	MsgsSent, MsgsRecv   int
}

// Collector accumulates traffic and convergence observations. It is safe
// for concurrent use (the TCP deployment mode records from many
// goroutines). The zero value is not ready; use NewCollector.
type Collector struct {
	mu          sync.Mutex
	bucketWidth time.Duration
	buckets     []int64 // bytes sent per time bucket, all nodes
	perNode     map[string]*NodeStats
	msgs        int
	bytes       int64
	lastSend    time.Duration
	converged   time.Duration
	hasConv     bool
}

// NewCollector returns a collector bucketing traffic at the given width
// (e.g. 10 ms buckets for the paper's 0–0.4 s bandwidth plots).
func NewCollector(bucketWidth time.Duration) *Collector {
	if bucketWidth <= 0 {
		bucketWidth = 10 * time.Millisecond
	}
	return &Collector{bucketWidth: bucketWidth, perNode: map[string]*NodeStats{}}
}

// BucketWidth returns the configured bucket width.
func (c *Collector) BucketWidth() time.Duration { return c.bucketWidth }

func (c *Collector) node(id string) *NodeStats {
	ns := c.perNode[id]
	if ns == nil {
		ns = &NodeStats{}
		c.perNode[id] = ns
	}
	return ns
}

// NodeHandle accounts one node's traffic without the per-message lookup by
// name: a platform obtains one per node when the node is added. The node
// enters the collector's per-node table with its first message, as it does
// through RecordSend and RecordRecv.
type NodeHandle struct {
	c     *Collector
	id    string
	stats *NodeStats // c.perNode[id], resolved under c.mu on first use
}

// Handle returns the accounting handle for one node.
func (c *Collector) Handle(nodeID string) *NodeHandle { return &NodeHandle{c: c, id: nodeID} }

// RecordSend accounts one transmitted message at virtual (or wall) time at.
func (h *NodeHandle) RecordSend(bytes int, at time.Duration) {
	c := h.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if h.stats == nil {
		h.stats = c.node(h.id)
	}
	h.stats.BytesSent += int64(bytes)
	h.stats.MsgsSent++
	c.msgs++
	c.bytes += int64(bytes)
	if at > c.lastSend {
		c.lastSend = at
	}
	b := int(at / c.bucketWidth)
	for len(c.buckets) <= b {
		c.buckets = append(c.buckets, 0)
	}
	c.buckets[b] += int64(bytes)
}

// RecordRecv accounts one received message.
func (h *NodeHandle) RecordRecv(bytes int) {
	c := h.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if h.stats == nil {
		h.stats = c.node(h.id)
	}
	h.stats.BytesRecv += int64(bytes)
	h.stats.MsgsRecv++
}

// RecordSend accounts one transmitted message of the named node.
func (c *Collector) RecordSend(nodeID string, bytes int, at time.Duration) {
	c.Handle(nodeID).RecordSend(bytes, at)
}

// RecordRecv accounts one received message of the named node.
func (c *Collector) RecordRecv(nodeID string, bytes int) { c.Handle(nodeID).RecordRecv(bytes) }

// MarkConverged records the convergence instant (idempotent: the first mark
// wins, matching "time until all nodes have computed routes").
func (c *Collector) MarkConverged(at time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.hasConv {
		c.hasConv = true
		c.converged = at
	}
}

// Converged returns the recorded convergence time, if any.
func (c *Collector) Converged() (time.Duration, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.converged, c.hasConv
}

// Totals returns total messages and bytes sent across all nodes.
func (c *Collector) Totals() (msgs int, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.msgs, c.bytes
}

// LastSend returns the time of the last transmitted message.
func (c *Collector) LastSend() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastSend
}

// Node returns a copy of one node's stats.
func (c *Collector) Node(id string) NodeStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	ns := c.perNode[id]
	if ns == nil {
		return NodeStats{}
	}
	return *ns
}

// NumNodes returns the number of nodes that sent or received traffic.
func (c *Collector) NumNodes() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.perNode)
}

// PerNodeBytes returns the mean bytes sent per node — the paper's "per-node
// communication cost" (e.g. 1.09 MB for HLP vs 1.75 MB for PV in §VI-D).
func (c *Collector) PerNodeBytes(numNodes int) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if numNodes == 0 {
		return 0
	}
	return float64(c.bytes) / float64(numNodes)
}

// Point is one sample of a bandwidth time series.
type Point struct {
	Time time.Duration
	// MBps is the average per-node bandwidth in megabytes per second over
	// the bucket, the unit of Figures 5 and 6.
	MBps float64
}

// BandwidthSeries returns the average per-node bandwidth utilization over
// time: for each bucket, bytes sent across all nodes divided by the node
// count and the bucket width. numNodes scales to a per-node average; upTo
// truncates or zero-extends the series to a fixed horizon so different runs
// plot over the same x axis.
func (c *Collector) BandwidthSeries(numNodes int, upTo time.Duration) []Point {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := int(upTo / c.bucketWidth)
	if n == 0 {
		n = len(c.buckets)
	}
	out := make([]Point, n)
	sec := c.bucketWidth.Seconds()
	for i := 0; i < n; i++ {
		var bytes int64
		if i < len(c.buckets) {
			bytes = c.buckets[i]
		}
		mbps := 0.0
		if numNodes > 0 {
			mbps = float64(bytes) / float64(numNodes) / sec / 1e6
		}
		out[i] = Point{Time: time.Duration(i) * c.bucketWidth, MBps: mbps}
	}
	return out
}

// FormatSeries renders a bandwidth series as the two-column table the
// paper's gnuplot figures consume (time seconds, MBps).
func FormatSeries(points []Point) string {
	var b strings.Builder
	for _, p := range points {
		fmt.Fprintf(&b, "%.3f\t%.6f\n", p.Time.Seconds(), p.MBps)
	}
	return b.String()
}
