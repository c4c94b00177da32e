package orb

import "time"

// Route is one invocation's walk over the profiles of a reference, primary
// first, whether it carries one request (Invoke) or a whole collective
// invocation, which core drives from its communicating thread. Next gates
// every profile on its circuit breaker: an open circuit is spilled past
// unsent, and one due a half-open probe must first answer a LocateRequest.
// Done records how an attempt ended and alone decides whether the walk moves
// on.
type Route struct {
	c       *Client
	ref     IOR
	addrs   []string // each profile's primary address, in ProfileAddrs order
	pos     int      // how many profiles the walk has reached
	bk      *breaker // the breaker of the profile Next returned; nil when breakers are off
	lastErr error    // the last failure moved past
}

// Route starts the walk of one invocation over ref's profiles, whose primary
// addresses are addrs (ref.ProfileAddrs): the walk renders none, so a holder
// of the reference renders them once for all its walks.
func (c *Client) Route(ref IOR, addrs []string) Route {
	return Route{c: c, ref: ref, addrs: addrs}
}

// Next returns the profile the next attempt goes to: its index in
// ProfileAddrs order and its primary address. With no profile left it returns
// the error the walk ends with: the last failure moved past, or
// ErrAllEndpointsDown when every profile was spilled past.
func (r *Route) Next() (int, string, error) {
	for r.pos < len(r.addrs) {
		idx, addr := r.pos, r.addrs[r.pos]
		r.pos++
		if r.bk = r.c.breakerFor(addr); r.bk != nil {
			ok, probe := r.bk.allow(time.Now())
			if !ok {
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
		return idx, addr, nil
	}
	if r.lastErr == nil {
		return -1, "", ErrAllEndpointsDown
	}
	return -1, "", r.lastErr
}

// Done records how the attempt on the profile Next returned ended with err
// and reports whether the walk moves on, to where the next Next says: past
// any failoverable error, and never past a success or an application-level
// outcome. If the walk stops, the invocation ends with err.
func (r *Route) Done(err error) bool {
	if r.bk != nil && err == nil {
		r.bk.success()
	} else if r.bk != nil && retryable(err) {
		r.bk.failure(time.Now())
	}
	if err == nil || !failoverable(err) {
		// The profile is alive and answered.
		return false
	}
	r.moveOn(err)
	return true
}

// moveOn leaves the current profile after err, which the walk ends with if no
// later profile takes the invocation. Only a move to another profile counts
// as a failover.
func (r *Route) moveOn(err error) {
	r.lastErr = err
	if r.pos < len(r.addrs) {
		r.c.countFailover()
	}
}

// Invoke performs a request on the object, walking its profiles primary first
// until one answers or none is left.
func (c *Client) Invoke(ref IOR, op string, args []byte, oneway bool) ([]byte, error) {
	addrs, err := ref.ProfileAddrs()
	if err != nil {
		return nil, err
	}
	r := c.Route(ref, addrs)
	for {
		_, addr, err := r.Next()
		if err != nil {
			return nil, err
		}
		out, err := c.InvokeAddr(nil, addr, ref.Key, op, args, oneway)
		if !r.Done(err) {
			return out, err
		}
	}
}
