package trace

import (
	"testing"
	"testing/quick"
	"time"
)

// TestBucketing: bytes land in the right buckets and the series scales to
// per-node MBps.
func TestBucketing(t *testing.T) {
	c := NewCollector(10 * time.Millisecond)
	c.RecordSend(1000, 5*time.Millisecond)  // bucket 0
	c.RecordSend(1000, 15*time.Millisecond) // bucket 1
	c.RecordSend(2000, 17*time.Millisecond) // bucket 1
	pts := c.BandwidthSeries(2, 30*time.Millisecond)
	if len(pts) != 3 {
		t.Fatalf("want 3 points, got %d", len(pts))
	}
	// Bucket 0: 1000 B / 2 nodes / 0.01 s = 50 000 B/s = 0.05 MBps.
	if pts[0].MBps != 0.05 {
		t.Errorf("bucket 0 = %v MBps, want 0.05", pts[0].MBps)
	}
	if pts[1].MBps != 0.15 {
		t.Errorf("bucket 1 = %v MBps, want 0.15", pts[1].MBps)
	}
	if pts[2].MBps != 0 {
		t.Errorf("bucket 2 should be zero-extended, got %v", pts[2].MBps)
	}
}

// TestTotalsAndPerNode: aggregate accounting, whichever node sent.
func TestTotalsAndPerNode(t *testing.T) {
	c := NewCollector(time.Millisecond)
	c.RecordSend(10, 0)
	c.RecordSend(20, time.Millisecond)
	msgs, bytes := c.Totals()
	if msgs != 2 || bytes != 30 {
		t.Errorf("totals %d/%d", msgs, bytes)
	}
}

// TestSeriesConservation (property, testing/quick): total bytes in the
// series equal total bytes recorded, for any sequence of sends within the
// horizon.
func TestSeriesConservation(t *testing.T) {
	f := func(sizes []uint16) bool {
		c := NewCollector(10 * time.Millisecond)
		var total float64
		for i, sz := range sizes {
			at := time.Duration(i%40) * 9 * time.Millisecond
			c.RecordSend(int(sz), at)
			total += float64(sz)
		}
		pts := c.BandwidthSeries(1, 400*time.Millisecond)
		var sum float64
		for _, p := range pts {
			sum += p.MBps * 1e6 * 0.01 // bytes per bucket
		}
		return int64(sum+0.5) == int64(total)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestFormatSeries: two columns, parseable.
func TestFormatSeries(t *testing.T) {
	out := FormatSeries([]Point{{Time: 10 * time.Millisecond, MBps: 0.5}})
	if out != "0.010\t0.500000\n" {
		t.Errorf("got %q", out)
	}
}
