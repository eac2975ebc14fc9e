// Package agents implements Pragma's active control network (§3.4): a
// CATALINA-style Message Center with per-component mailbox ports, component
// agents with embedded sensors and actuators, an application delegated
// manager (ADM) that consolidates local decisions hierarchically, and a
// template registry with discovery.
//
// The Message Center supports two deployments: in-process (agents share a
// Center) and distributed (agents connect to a Center over TCP, emulating a
// multi-node control network on one machine — see tcp.go). Agent code is
// identical in both cases: everything speaks the Port interface.
package agents

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"
)

// Message is the unit of communication in the control network. "In the MC,
// every component is assigned a port which acts as its mailbox. Every
// message directed to a component is placed on this mailbox."
type Message struct {
	// From is the sender's port name.
	From string `json:"from"`
	// To is the destination port; empty for topic publications.
	To string `json:"to,omitempty"`
	// Topic routes publish/subscribe traffic; empty for direct messages.
	Topic string `json:"topic,omitempty"`
	// Kind labels the payload ("state", "event", "command", ...).
	Kind string `json:"kind"`
	// Payload is the JSON-encoded message body.
	Payload json.RawMessage `json:"payload,omitempty"`
}

// Encode marshals a payload value for a Message.
func Encode(v interface{}) json.RawMessage {
	data, err := json.Marshal(v)
	if err != nil {
		// Payload types are under our control; failure is programmer error.
		panic(fmt.Sprintf("agents: encode payload: %v", err))
	}
	return data
}

// Decode unmarshals a message payload into v.
func Decode(m Message, v interface{}) error {
	return json.Unmarshal(m.Payload, v)
}

// Port is the capability agents use to communicate: register a mailbox,
// send direct messages, and publish/subscribe on topics. Both the
// in-process Center and the TCP Client implement it.
type Port interface {
	// Register creates mailbox `port` and returns its delivery channel.
	Register(port string, buffer int) (<-chan Message, error)
	// Unregister removes the mailbox and closes its channel.
	Unregister(port string)
	// Send places a direct message on the destination port's mailbox.
	Send(m Message) error
	// Subscribe adds the port to a topic's subscriber list.
	Subscribe(port, topic string) error
	// Publish delivers the message to every subscriber of m.Topic.
	Publish(m Message) error
}

// Center is the Message Center: the broker owning all mailboxes.
type Center struct {
	mu     sync.RWMutex
	local  map[string]chan Message
	remote map[string]*wireConn // ports hosted by TCP clients
	subs   map[string]map[string]bool
	closed bool

	// Wire options, fixed at construction.
	heartbeatTimeout time.Duration
	writeTimeout     time.Duration
	onError          func(error)

	// onDisconnect, when set, is told which remote ports vanished when a
	// TCP client's connection tore down (eviction, link loss, or clean
	// close). Settable after construction — see OnDisconnect.
	onDisconnect func(ports []string)
}

// CenterOption configures the Message Center's wire behavior.
type CenterOption func(*Center)

// WithHeartbeatTimeout arms server-side liveness eviction: a TCP client
// that sends no frame (heartbeats included) for the given duration is
// disconnected and its ports reclaimed. 0 (the default) disables eviction.
func WithHeartbeatTimeout(d time.Duration) CenterOption {
	return func(c *Center) { c.heartbeatTimeout = d }
}

// WithCenterWriteTimeout arms a per-frame write deadline on server-side
// wire writes, so one stalled client cannot wedge delivery to it forever.
func WithCenterWriteTimeout(d time.Duration) CenterOption {
	return func(c *Center) { c.writeTimeout = d }
}

// WithCenterErrorHandler installs a sink for wire-level failures observed
// by connection handlers (decode errors, evictions). The handler runs on
// handler goroutines and must not block.
func WithCenterErrorHandler(fn func(error)) CenterOption {
	return func(c *Center) { c.onError = fn }
}

// NewCenter creates an empty Message Center.
func NewCenter(opts ...CenterOption) *Center {
	c := &Center{
		local:  make(map[string]chan Message),
		remote: make(map[string]*wireConn),
		subs:   make(map[string]map[string]bool),
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// reportErr routes a wire-level failure to the configured handler.
func (c *Center) reportErr(err error) {
	if c.onError != nil {
		c.onError(err)
	}
}

// OnDisconnect installs a handler invoked with the remote port names
// reclaimed when a TCP client's connection tears down — broker-side
// eviction for heartbeat silence, link loss, or a clean close. The fleet
// router uses it to begin failover the moment a worker's link dies instead
// of waiting out its own heartbeat window. The handler runs on connection
// handler goroutines and must not block; nil removes it.
func (c *Center) OnDisconnect(fn func(ports []string)) {
	c.mu.Lock()
	c.onDisconnect = fn
	c.mu.Unlock()
}

// Register implements Port.
func (c *Center) Register(port string, buffer int) (<-chan Message, error) {
	if port == "" {
		return nil, fmt.Errorf("agents: empty port name")
	}
	if buffer < 1 {
		buffer = 16
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, fmt.Errorf("agents: message center closed")
	}
	if _, ok := c.local[port]; ok {
		return nil, fmt.Errorf("agents: port %q already registered", port)
	}
	if _, ok := c.remote[port]; ok {
		return nil, fmt.Errorf("agents: port %q already registered remotely", port)
	}
	ch := make(chan Message, buffer)
	c.local[port] = ch
	return ch, nil
}

// Unregister implements Port.
func (c *Center) Unregister(port string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ch, ok := c.local[port]; ok {
		delete(c.local, port)
		close(ch)
	}
	for _, subscribers := range c.subs {
		delete(subscribers, port)
	}
}

// Send implements Port.
func (c *Center) Send(m Message) error {
	if m.To == "" {
		return fmt.Errorf("agents: direct message without destination")
	}
	metricSends.Inc()
	c.mu.RLock()
	ch, okL := c.local[m.To]
	rc, okR := c.remote[m.To]
	if okL {
		// The send never blocks, so it stays under the read lock: an
		// Unregister racing it cannot close the mailbox mid-send.
		defer c.mu.RUnlock()
		select {
		case ch <- m:
			return nil
		default:
			metricMailboxFull.Inc()
			return fmt.Errorf("agents: mailbox %q full", m.To)
		}
	}
	c.mu.RUnlock()
	switch {
	case okR:
		return rc.deliver(m)
	default:
		return fmt.Errorf("agents: no such port %q", m.To)
	}
}

// Subscribe implements Port.
func (c *Center) Subscribe(port, topic string) error {
	if topic == "" {
		return fmt.Errorf("agents: empty topic")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	_, okL := c.local[port]
	_, okR := c.remote[port]
	if !okL && !okR {
		return fmt.Errorf("agents: subscribe: no such port %q", port)
	}
	if c.subs[topic] == nil {
		c.subs[topic] = make(map[string]bool)
	}
	c.subs[topic][port] = true
	return nil
}

// Publish implements Port. Delivery is best-effort per subscriber: a full
// mailbox drops that copy and publication continues; the first delivery
// error is returned.
func (c *Center) Publish(m Message) error {
	if m.Topic == "" {
		return fmt.Errorf("agents: publish without topic")
	}
	metricPublishes.Inc()
	c.mu.RLock()
	targets := make([]string, 0, len(c.subs[m.Topic]))
	for port := range c.subs[m.Topic] {
		targets = append(targets, port)
	}
	c.mu.RUnlock()
	var firstErr error
	for _, port := range targets {
		if port == m.From {
			continue // no echo to the publisher
		}
		copy := m
		copy.To = port
		if err := c.Send(copy); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// QueueDepth returns the number of messages currently queued across the
// center's local mailboxes — the control network's aggregate backlog.
// Remote ports queue on their owning client, not here.
func (c *Center) QueueDepth() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	n := 0
	for _, ch := range c.local {
		n += len(ch)
	}
	return n
}

// Ports returns the registered port names (local and remote), mainly for
// monitoring and tests.
func (c *Center) Ports() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.local)+len(c.remote))
	for p := range c.local {
		out = append(out, p)
	}
	for p := range c.remote {
		out = append(out, p)
	}
	return out
}

var _ Port = (*Center)(nil)
