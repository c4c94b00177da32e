package exp

import (
	"io"
	"sync"
	"time"
)

// bandwidthPipe models a bandwidth-limited link on top of a real stream. A
// bandwidth cap is a stall: each direction owns a clock that advances len/bps
// per byte carried, and an operation sleeps until the link has drained what it
// just moved. Wrapping the client side throttles both legs — outbound requests
// through Write, inbound replies through Read — so one Wrap models the whole
// link.
type bandwidthPipe struct {
	inner io.ReadWriteCloser
	bps   float64

	wmu   sync.Mutex
	wfree time.Time
	rmu   sync.Mutex
	rfree time.Time
}

func newBandwidthPipe(inner io.ReadWriteCloser, bytesPerSec int) *bandwidthPipe {
	return &bandwidthPipe{inner: inner, bps: float64(bytesPerSec)}
}

// stall charges n bytes against the direction's clock and sleeps off any
// accumulated debt. The clock never falls behind now, so idle time is not
// banked as burst credit.
func (p *bandwidthPipe) stall(mu *sync.Mutex, free *time.Time, n int) {
	if n <= 0 {
		return
	}
	d := time.Duration(float64(n) / p.bps * float64(time.Second))
	mu.Lock()
	now := time.Now()
	if free.Before(now) {
		*free = now
	}
	*free = free.Add(d)
	wait := free.Sub(now)
	mu.Unlock()
	if wait > 0 {
		time.Sleep(wait)
	}
}

func (p *bandwidthPipe) Write(b []byte) (int, error) {
	n, err := p.inner.Write(b)
	p.stall(&p.wmu, &p.wfree, n)
	return n, err
}

func (p *bandwidthPipe) Read(b []byte) (int, error) {
	n, err := p.inner.Read(b)
	p.stall(&p.rmu, &p.rfree, n)
	return n, err
}

func (p *bandwidthPipe) Close() error { return p.inner.Close() }
