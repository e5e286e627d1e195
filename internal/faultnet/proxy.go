package faultnet

import (
	"io"
	"net"
	"sync"
)

// Proxy is a TCP forwarder with the injector's fault schedule applied
// on the client side: every byte between a client and the target
// passes through a wrapped connection, so latency, truncation, resets
// and stalls land on the client path while the target sees ordinary
// (if abruptly ending) TCP. cmd/kvsoak's -chaos mode runs its whole
// load through one.
type Proxy struct {
	ln     net.Listener
	target string
	in     *Injector

	mu     sync.Mutex
	conns  map[net.Conn]struct{} // both sides of every live pair
	closed bool

	wg sync.WaitGroup
}

// NewProxy listens on listenAddr (use "127.0.0.1:0" for an ephemeral
// port) and forwards every connection to target through in's fault
// schedule. The proxy serves in the background until Close.
func NewProxy(listenAddr, target string, in *Injector) (*Proxy, error) {
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, err
	}
	p := &Proxy{ln: ln, target: target, in: in, conns: make(map[net.Conn]struct{})}
	p.wg.Add(1)
	go p.serve()
	return p, nil
}

// Addr is the proxy's dial address.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// Close stops accepting, cuts every proxied connection, and waits for
// the pump goroutines to drain.
func (p *Proxy) Close() error {
	p.mu.Lock()
	p.closed = true
	for c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
	err := p.ln.Close()
	p.wg.Wait()
	return err
}

func (p *Proxy) serve() {
	defer p.wg.Done()
	for {
		client, err := p.ln.Accept()
		if err != nil {
			return
		}
		upstream, err := net.Dial("tcp", p.target)
		if err != nil {
			client.Close()
			continue
		}
		faulty := p.in.Wrap(client)
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			faulty.Close()
			upstream.Close()
			return
		}
		p.conns[faulty] = struct{}{}
		p.conns[upstream] = struct{}{}
		p.mu.Unlock()
		var pumps sync.WaitGroup
		pumps.Add(2)
		pump := func(dst, src net.Conn) {
			defer pumps.Done()
			buf := make([]byte, 16<<10)
			io.CopyBuffer(dst, src, buf)
			// Either side dying cuts the pair: the peer's pump wakes on
			// its own read/write error.
			faulty.Close()
			upstream.Close()
		}
		go pump(upstream, faulty) // client -> server, faulted reads
		go pump(faulty, upstream) // server -> client, faulted writes
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			pumps.Wait()
			p.mu.Lock()
			delete(p.conns, faulty)
			delete(p.conns, upstream)
			p.mu.Unlock()
		}()
	}
}
