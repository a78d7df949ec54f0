package trace

import (
	"sync"
	"testing"
	"time"
)

// TestCollectorConcurrent hammers one collector from many goroutines —
// the TCP deployment mode's access pattern — and checks nothing is lost.
// Run under -race in CI, this also proves the locking is complete.
func TestCollectorConcurrent(t *testing.T) {
	c := NewCollector(10 * time.Millisecond)
	const workers, per = 16, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := string(rune('a' + w%8))
			for i := 0; i < per; i++ {
				c.RecordSend(id, 100, time.Duration(i)*time.Millisecond)
				c.RecordRecv(id, 100)
				if i%50 == 0 {
					c.MarkConverged(time.Duration(i) * time.Millisecond)
					c.BandwidthSeries(8, 200*time.Millisecond)
					c.Totals()
				}
			}
		}(w)
	}
	wg.Wait()
	msgs, bytes := c.Totals()
	if msgs != workers*per || bytes != int64(workers*per*100) {
		t.Errorf("Totals = %d msgs / %d bytes, want %d / %d",
			msgs, bytes, workers*per, workers*per*100)
	}
	if c.NumNodes() != 8 {
		t.Errorf("NumNodes = %d, want 8", c.NumNodes())
	}
	recv := 0
	for i := 0; i < 8; i++ {
		recv += c.Node(string(rune('a' + i))).MsgsRecv
	}
	if recv != workers*per {
		t.Errorf("summed MsgsRecv = %d, want %d", recv, workers*per)
	}
	if _, ok := c.Converged(); !ok {
		t.Error("convergence mark lost")
	}
}

// TestBandwidthSeriesBoundary pins BandwidthSeries' behavior at the upTo
// boundary: zero-extension past the recorded buckets, truncation before
// them, the natural length at upTo=0, and the sub-bucket rounding edge.
func TestBandwidthSeriesBoundary(t *testing.T) {
	w := 10 * time.Millisecond
	c := NewCollector(w)
	// Buckets 0,1,2 get traffic (last send at 25 ms → 3 buckets exist).
	c.RecordSend("a", 1000, 0)
	c.RecordSend("a", 1000, 12*time.Millisecond)
	c.RecordSend("a", 1000, 25*time.Millisecond)

	// Zero-extension: a 60 ms horizon yields 6 points, the tail all zero.
	pts := c.BandwidthSeries(1, 60*time.Millisecond)
	if len(pts) != 6 {
		t.Fatalf("extend: %d points, want 6", len(pts))
	}
	for i := 3; i < 6; i++ {
		if pts[i].MBps != 0 {
			t.Errorf("extend: bucket %d not zero: %v", i, pts[i].MBps)
		}
		if pts[i].Time != time.Duration(i)*w {
			t.Errorf("extend: bucket %d time %v", i, pts[i].Time)
		}
	}
	if pts[2].MBps == 0 {
		t.Error("extend: recorded bucket 2 lost")
	}

	// Truncation: a 20 ms horizon cuts the series to 2 points, dropping
	// bucket 2 even though it holds traffic.
	pts = c.BandwidthSeries(1, 20*time.Millisecond)
	if len(pts) != 2 {
		t.Fatalf("truncate: %d points, want 2", len(pts))
	}
	if pts[0].MBps == 0 || pts[1].MBps == 0 {
		t.Errorf("truncate: kept buckets wrong: %+v", pts)
	}

	// upTo = 0 falls back to the recorded length.
	if got := len(c.BandwidthSeries(1, 0)); got != 3 {
		t.Errorf("upTo=0: %d points, want 3 (recorded length)", got)
	}
	// upTo below one bucket width also rounds to 0 → recorded length.
	if got := len(c.BandwidthSeries(1, w-1)); got != 3 {
		t.Errorf("upTo<width: %d points, want 3", got)
	}
	// upTo exactly one width is a genuine 1-point truncation.
	if got := len(c.BandwidthSeries(1, w)); got != 1 {
		t.Errorf("upTo=width: %d points, want 1", got)
	}
}

// TestNodeHandleSharesTheNodeRow: a handle and the by-name calls account
// into the same per-node row, a handle shared by goroutines (a TCP node's
// readers and its executor) loses nothing, and a node enters the table with
// its first message, not when its handle is taken.
func TestNodeHandleSharesTheNodeRow(t *testing.T) {
	c := NewCollector(10 * time.Millisecond)
	h, idle := c.Handle("a"), c.Handle("idle")
	if c.NumNodes() != 0 {
		t.Fatalf("NumNodes = %d before any traffic, want 0", c.NumNodes())
	}
	c.RecordSend("a", 10, 0)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				h.RecordSend(10, time.Duration(i)*time.Millisecond)
				h.RecordRecv(5)
			}
		}()
	}
	wg.Wait()
	if got, want := c.Node("a"), (NodeStats{BytesSent: 4010, BytesRecv: 2000, MsgsSent: 401, MsgsRecv: 400}); got != want {
		t.Errorf("node a: %+v, want %+v", got, want)
	}
	if msgs, bytes := c.Totals(); msgs != 401 || bytes != 4010 {
		t.Errorf("Totals = %d msgs / %d bytes, want 401 / 4010", msgs, bytes)
	}
	if c.NumNodes() != 1 || idle.stats != nil {
		t.Errorf("NumNodes = %d, want 1: the idle handle's node never had traffic", c.NumNodes())
	}
}
