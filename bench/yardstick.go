package main

import (
	"errors"
	"io"
	"net"
	"syscall"
	"time"
)

// bareSetup is the yardstick setup_s is read against: the least any set-up
// on this machine does. It opens a loopback TCP connection, exchanges
// yardExchanges small messages over it, closes it, and touches yardBytes of
// memory the process has never used. Nothing of the program under test is
// in it, so when it takes longer than a minute ago, the machine is slower
// than a minute ago, and by about as much as it is for a set-up of the
// program, which is made of the same things (README.md, "Observed spread").
// runOnce runs it right before every set-up and reports the set-up in
// multiples of it.
func bareSetup() (time.Duration, error) {
	start := time.Now()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	echoed := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			echoed <- err
			return
		}
		defer c.Close()
		var msg [64]byte
		for {
			if _, err := io.ReadFull(c, msg[:]); err != nil {
				if errors.Is(err, io.EOF) { // the dialling side is done
					err = nil
				}
				echoed <- err
				return
			}
			if _, err := c.Write(msg[:]); err != nil {
				echoed <- err
				return
			}
		}
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		ln.Close() // fails the Accept, if it is still waiting
		<-echoed
		return 0, err
	}
	var msg [64]byte
	for i := 0; i < yardExchanges && err == nil; i++ {
		if _, err = c.Write(msg[:]); err == nil {
			_, err = io.ReadFull(c, msg[:])
		}
	}
	if err = errors.Join(err, c.Close(), <-echoed); err != nil {
		return 0, err
	}

	mem, err := syscall.Mmap(-1, 0, yardBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return 0, err
	}
	for i := 0; i < len(mem); i += 4096 {
		mem[i] = 1
	}
	if err := syscall.Munmap(mem); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

const (
	yardExchanges = 40
	yardBytes     = 2 << 20
	// yardNominal turns multiples of the yardstick back into seconds: it is
	// what bareSetup takes on the box this was built on in its usual phase
	// (1.8-2.4 ms there). setup_s is the set-up time at the machine speed at
	// which bareSetup takes exactly this long.
	yardNominal = 2 * time.Millisecond
)
