package main

import (
	"sync/atomic"
	"time"

	"sparker/internal/transport"
)

// countingNetwork wraps a transport.Network and counts every message
// sent on any of its connections: messages, payload bytes, and time
// spent inside Send summed over all senders. The traced run's
// transport.* metrics come from it.
type countingNetwork struct {
	inner               transport.Network
	msgs, bytes, sendNS atomic.Int64
}

func newCountingNetwork(inner transport.Network) *countingNetwork {
	return &countingNetwork{inner: inner}
}

func (n *countingNetwork) Listen(addr transport.Addr) (transport.Listener, error) {
	l, err := n.inner.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &countingListener{Listener: l, net: n}, nil
}

func (n *countingNetwork) Dial(addr transport.Addr) (transport.Conn, error) {
	c, err := n.inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, net: n}, nil
}

func (n *countingNetwork) Close() error { return n.inner.Close() }

type countingListener struct {
	transport.Listener
	net *countingNetwork
}

func (l *countingListener) Accept() (transport.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, net: l.net}, nil
}

type countingConn struct {
	transport.Conn
	net *countingNetwork
}

func (c *countingConn) Send(b []byte) error {
	n := len(b) // b belongs to the transport once Send is called
	t0 := time.Now()
	err := c.Conn.Send(b)
	c.net.sendNS.Add(int64(time.Since(t0)))
	c.net.msgs.Add(1)
	c.net.bytes.Add(int64(n))
	return err
}

// SendRetainsBuffer forwards transport.SendRetainer to the wrapped
// connection, as the fault-injection wrapper does. Without it the comm
// layer would treat every connection as retaining and stop recycling
// send buffers over TCP, so the traced run would measure another
// program.
func (c *countingConn) SendRetainsBuffer() bool {
	if sr, ok := c.Conn.(transport.SendRetainer); ok {
		return sr.SendRetainsBuffer()
	}
	return true
}
