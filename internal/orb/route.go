package orb

import "time"

// Route is one invocation's walk over the profiles of a reference, whether it
// carries one request (InvokeOpts) or a whole collective invocation, which
// core drives from its communicating thread. The order is primary first, or
// with a ShardKey the key's ring order, owner first. Next gates every profile
// on its circuit breaker: an open circuit is spilled past unsent, and one due
// a half-open probe must first answer a LocateRequest. Done records how an
// attempt ended and alone decides whether the walk moves on.
type Route struct {
	c       *Client
	ref     IOR
	o       InvokeOptions
	addrs   []string    // each profile's primary address, in ProfileAddrs order
	g       *shardGroup // the ring and its instruments; nil for a keyless walk
	order   []int       // the ring order; nil walks primary first
	pos     int         // how much of the order has been consumed
	cur     int         // the profile Next returned last
	bk      *breaker    // its breaker; nil when breakers are off
	lastErr error       // the last failure moved past
}

// Route starts the walk of one invocation with options o over ref's profiles,
// whose primary addresses are addrs (ref.ProfileAddrs): the walk renders none,
// so a holder of the reference renders them once for all its walks.
func (c *Client) Route(ref IOR, addrs []string, o InvokeOptions) Route {
	return Route{c: c, ref: ref, addrs: addrs, o: o}
}

// Next returns the profile the next attempt goes to: its index in
// ProfileAddrs order and its primary address. With no profile left it returns
// the error the walk ends with: the last failure moved past, or
// ErrAllEndpointsDown when every profile was spilled past.
func (r *Route) Next() (int, string, error) {
	if r.o.ShardKey != nil && r.g == nil {
		r.g = r.c.shardGroupFor(r.addrs)
		r.order = r.g.ring.Order(r.o.ShardKey)
	}
	for r.pos < len(r.addrs) {
		r.cur = r.pos
		if r.order != nil {
			r.cur = r.order[r.pos]
		}
		r.pos++
		addr := r.addrs[r.cur]
		if r.bk = r.c.breakerFor(addr); r.bk != nil {
			ok, probe := r.bk.allow(time.Now())
			if !ok {
				if r.g != nil {
					r.g.healthy[r.cur].Set(0)
					r.c.countShardSpill(r.g, r.cur)
				}
				continue
			}
			if probe {
				if _, err := r.c.locate(addr, r.ref.Key); err != nil {
					r.bk.failure(time.Now())
					if !failoverable(err) {
						return -1, "", err
					}
					r.moveOn(err)
					continue
				}
				r.bk.success()
			}
		}
		if r.g != nil {
			r.g.picks[r.cur].Inc()
		}
		return r.cur, addr, nil
	}
	if r.lastErr == nil {
		return -1, "", ErrAllEndpointsDown
	}
	return -1, "", r.lastErr
}

// Done records how the attempt on the profile Next returned ended and reports
// whether the walk moves on, to where the next Next says. The reroute rule: a
// keyless walk moves on past any failoverable error; a keyed one past an
// ambiguous failure — the request may have been dispatched — only when the
// operation is Idempotent, and past what provably never was (TRANSIENT
// shedding) either way. If the walk stops, the invocation ends with the error
// returned: err, pinned to its shard when a keyed walk stops at an ambiguous
// failure.
func (r *Route) Done(err error) (bool, error) {
	if r.bk != nil && err == nil {
		r.bk.success()
	} else if r.bk != nil && retryable(err) {
		r.bk.failure(time.Now())
	}
	switch {
	case err == nil && r.g != nil:
		r.g.healthy[r.cur].Set(1)
	case err == nil || !failoverable(err):
		// An application-level outcome: the profile is alive and answered.
	case r.g != nil && !r.o.Idempotent && !IsTransient(err):
		r.g.healthy[r.cur].Set(0)
		return false, &ShardError{Shard: r.addrs[r.cur], Err: err}
	default:
		r.moveOn(err)
		return true, nil
	}
	return false, err
}

// moveOn leaves the current profile after err, which the walk ends with if no
// later profile takes the invocation. Only a move to another profile counts
// as a failover (and, keyed, as a reroute).
func (r *Route) moveOn(err error) {
	r.lastErr = err
	if r.g != nil {
		r.g.healthy[r.cur].Set(0)
		r.lastErr = &ShardError{Shard: r.addrs[r.cur], Err: err}
	}
	if r.pos == len(r.addrs) {
		return
	}
	if r.g != nil {
		r.c.countShardReroute(r.g, r.cur)
	}
	r.c.countFailover()
}

// InvokeOpts performs a request with full per-invocation options, walking the
// reference's profiles until one answers or none is left.
func (c *Client) InvokeOpts(ref IOR, op string, args []byte, o InvokeOptions) ([]byte, error) {
	out, _, err := c.InvokeSharded(ref, op, args, o)
	return out, err
}

// InvokeSharded is InvokeOpts that also returns the index (in ProfileAddrs
// order) of the profile that served — with a ShardKey, the shard — or -1.
func (c *Client) InvokeSharded(ref IOR, op string, args []byte, o InvokeOptions) ([]byte, int, error) {
	addrs, err := ref.ProfileAddrs()
	if err != nil {
		return nil, -1, err
	}
	r := c.Route(ref, addrs, o)
	for {
		idx, addr, err := r.Next()
		if err != nil {
			return nil, -1, err
		}
		out, err := c.InvokeAddrOpts(addr, ref.Key, op, args, o)
		if again, err := r.Done(err); !again {
			if err != nil {
				return nil, -1, err
			}
			return out, idx, nil
		}
	}
}
