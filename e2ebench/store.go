package main

import (
	"sync"
	"sync/atomic"
	"time"

	jsontiles "repro"
	"repro/internal/manifest"
)

// timedStore is the benchmark's BlockStore wrapper: it delegates every
// call to the store a table is opened on and records, per method, the
// call count, the bytes moved and the time spent inside the call. Puts
// are split by object name into segment writes and manifest (catalog)
// commits. It is the blockstore and manifest layers' span source.
type timedStore struct {
	inner jsontiles.BlockStore

	reads, readBytes, readNanos, readErrs atomic.Int64
	segPuts, segPutBytes, segPutNanos     atomic.Int64
	manPuts, manPutNanos                  atomic.Int64

	mu      sync.Mutex
	readLat []time.Duration // per-call ReadRange latency
}

func newTimedStore(inner jsontiles.BlockStore) *timedStore {
	return &timedStore{inner: inner}
}

func (s *timedStore) Label() string { return s.inner.Label() }

func (s *timedStore) ReadRange(name string, off, n int64) ([]byte, error) {
	start := time.Now()
	b, err := s.inner.ReadRange(name, off, n)
	d := time.Since(start)
	s.readNanos.Add(int64(d))
	if err != nil {
		s.readErrs.Add(1)
		return b, err
	}
	s.reads.Add(1)
	s.readBytes.Add(int64(len(b)))
	s.mu.Lock()
	s.readLat = append(s.readLat, d)
	s.mu.Unlock()
	return b, nil
}

func (s *timedStore) Size(name string) (int64, error) { return s.inner.Size(name) }

func (s *timedStore) Put(name string, data []byte) error {
	start := time.Now()
	err := s.inner.Put(name, data)
	d := int64(time.Since(start))
	if manifest.IsSegmentFileName(name) {
		s.segPuts.Add(1)
		s.segPutBytes.Add(int64(len(data)))
		s.segPutNanos.Add(d)
	} else {
		s.manPuts.Add(1)
		s.manPutNanos.Add(d)
	}
	return err
}

func (s *timedStore) Delete(name string) error { return s.inner.Delete(name) }

func (s *timedStore) List() ([]string, error) { return s.inner.List() }

// storeCounts is a point-in-time copy of a timedStore's counters;
// subtracting two gives the traffic of one phase.
type storeCounts struct {
	Reads, ReadBytes, ReadNanos, ReadErrs int64
	SegPuts, SegPutBytes, SegPutNanos     int64
	ManPuts, ManPutNanos                  int64
	ReadLat                               []time.Duration
}

func (s *timedStore) snapshot() storeCounts {
	s.mu.Lock()
	lat := append([]time.Duration(nil), s.readLat...)
	s.mu.Unlock()
	return storeCounts{
		Reads: s.reads.Load(), ReadBytes: s.readBytes.Load(),
		ReadNanos: s.readNanos.Load(), ReadErrs: s.readErrs.Load(),
		SegPuts: s.segPuts.Load(), SegPutBytes: s.segPutBytes.Load(),
		SegPutNanos: s.segPutNanos.Load(),
		ManPuts:     s.manPuts.Load(), ManPutNanos: s.manPutNanos.Load(),
		ReadLat: lat,
	}
}

// sub returns c minus base; the read-latency sample keeps the calls
// made after base was taken.
func (c storeCounts) sub(base storeCounts) storeCounts {
	return storeCounts{
		Reads: c.Reads - base.Reads, ReadBytes: c.ReadBytes - base.ReadBytes,
		ReadNanos: c.ReadNanos - base.ReadNanos, ReadErrs: c.ReadErrs - base.ReadErrs,
		SegPuts: c.SegPuts - base.SegPuts, SegPutBytes: c.SegPutBytes - base.SegPutBytes,
		SegPutNanos: c.SegPutNanos - base.SegPutNanos,
		ManPuts:     c.ManPuts - base.ManPuts, ManPutNanos: c.ManPutNanos - base.ManPutNanos,
		ReadLat: c.ReadLat[len(base.ReadLat):],
	}
}

// add returns the sum of two phases' traffic.
func (c storeCounts) add(o storeCounts) storeCounts {
	return storeCounts{
		Reads: c.Reads + o.Reads, ReadBytes: c.ReadBytes + o.ReadBytes,
		ReadNanos: c.ReadNanos + o.ReadNanos, ReadErrs: c.ReadErrs + o.ReadErrs,
		SegPuts: c.SegPuts + o.SegPuts, SegPutBytes: c.SegPutBytes + o.SegPutBytes,
		SegPutNanos: c.SegPutNanos + o.SegPutNanos,
		ManPuts:     c.ManPuts + o.ManPuts, ManPutNanos: c.ManPutNanos + o.ManPutNanos,
		ReadLat: append(append([]time.Duration(nil), c.ReadLat...), o.ReadLat...),
	}
}
