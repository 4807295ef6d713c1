package net

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"syscall"
	"time"

	"offt/internal/machine"
	"offt/internal/mpi/transport"
)

// Config describes one process's membership in a world to Join.
type Config struct {
	Rank        int           // this process's rank, 0 <= Rank < Size
	Size        int           // total ranks (processes) in the world
	Coord       string        // coordinator rendezvous address (host:port); rank 0 listens on it
	Listen      string        // data listener bind address; default "127.0.0.1:0"
	World       string        // world id guarding against cross-job joins; default "offt"
	JoinTimeout time.Duration // bootstrap deadline; default 30s

	// CoordListener, when non-nil, is a pre-bound listener rank 0 uses for
	// the rendezvous instead of binding Coord itself. In-process callers
	// (tests, benchmarks) that pick a free port by listening on ":0" should
	// hand the live listener over rather than close-and-rebind — releasing
	// the port first races against the kernel reassigning it as an
	// ephemeral port to one of the world's own outbound connections. Join
	// takes ownership and closes it. Ignored for ranks != 0.
	CoordListener net.Listener
}

// helloMsg is one joining rank's registration with the coordinator.
type helloMsg struct {
	World string `json:"world"`
	Rank  int    `json:"rank"`
	Size  int    `json:"size"`
	Addr  string `json:"addr"`
}

// tableMsg is the coordinator's reply: the complete rank → data-address
// table (or a bootstrap error fanned out to every joiner).
type tableMsg struct {
	World string   `json:"world"`
	Size  int      `json:"size"`
	Addrs []string `json:"addrs,omitempty"`
	Err   string   `json:"err,omitempty"`
}

// Join forms (or joins) a world: every rank opens a data listener, rank 0
// additionally listens on the coordinator address and collects one hello
// per peer rank, then fans the complete rank → address table back out;
// finally the ranks wire a full TCP mesh (rank i dials every j < i,
// accepts from every j > i) and start the per-peer I/O goroutines.
//
// Join blocks until the whole world is connected (the rendezvous) or the
// join timeout passes.
func Join(cfg Config, opts ...transport.Option) (*World, error) {
	if cfg.Size < 1 {
		return nil, fmt.Errorf("net: world size %d, need >= 1", cfg.Size)
	}
	if cfg.Rank < 0 || cfg.Rank >= cfg.Size {
		return nil, fmt.Errorf("net: rank %d out of range [0, %d)", cfg.Rank, cfg.Size)
	}
	if cfg.Coord == "" && cfg.Size > 1 {
		return nil, fmt.Errorf("net: coordinator address required for size %d", cfg.Size)
	}
	if cfg.Listen == "" {
		cfg.Listen = "127.0.0.1:0"
	}
	if cfg.World == "" {
		cfg.World = "offt"
	}
	if cfg.JoinTimeout <= 0 {
		cfg.JoinTimeout = 30 * time.Second
	}
	deadline := time.Now().Add(cfg.JoinTimeout)

	tc := transport.Config{Name: "net", RTO: 25 * time.Millisecond, HangTimeout: defaultHangTimeout, Machine: machine.Laptop()}
	for _, o := range opts {
		o(&tc)
	}
	w := &World{rank: cfg.Rank, p: cfg.Size, wire: wire{peers: make([]*peer, cfg.Size)}}
	w.World = transport.New(cfg.Size, cfg.Rank, cfg.Rank+1, &w.wire, tc)
	w.wire.world = w.World

	if cfg.Rank != 0 && cfg.CoordListener != nil {
		cfg.CoordListener.Close()
		cfg.CoordListener = nil
	}
	dataLn, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		if cfg.CoordListener != nil {
			cfg.CoordListener.Close()
		}
		return nil, fmt.Errorf("net: rank %d: data listen %s: %w", cfg.Rank, cfg.Listen, err)
	}
	defer dataLn.Close()

	var addrs []string
	if cfg.Rank == 0 {
		addrs, err = coordinate(cfg, dataLn.Addr().String(), deadline)
	} else {
		addrs, err = register(cfg, dataLn.Addr().String(), deadline)
	}
	if err != nil {
		return nil, err
	}

	if err := w.mesh(dataLn, addrs, deadline); err != nil {
		for _, pe := range w.wire.peers {
			if pe != nil {
				pe.conn.Close()
			}
		}
		return nil, err
	}
	for _, pe := range w.wire.peers {
		if pe == nil {
			continue
		}
		w.wg.Add(1)
		go w.reader(pe)
		go w.writer(pe)
	}
	return w, nil
}

// coordinate is rank 0's side of the rendezvous: collect size-1 hellos,
// validate them, fan the table out. Every joiner gets the table (or the
// bootstrap error) on its own rendezvous connection.
func coordinate(cfg Config, selfAddr string, deadline time.Time) ([]string, error) {
	if cfg.Size == 1 {
		if cfg.CoordListener != nil {
			cfg.CoordListener.Close()
		}
		return []string{selfAddr}, nil
	}
	coordLn := cfg.CoordListener
	if coordLn == nil {
		var err error
		coordLn, err = listenRetry(cfg.Coord, deadline)
		if err != nil {
			return nil, fmt.Errorf("net: coordinator listen %s: %w", cfg.Coord, err)
		}
	}
	defer coordLn.Close()

	addrs := make([]string, cfg.Size)
	addrs[0] = selfAddr
	conns := make([]net.Conn, 0, cfg.Size-1)
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()

	var bootErr error
	for joined := 1; joined < cfg.Size; joined++ {
		if tl, ok := coordLn.(*net.TCPListener); ok {
			tl.SetDeadline(deadline)
		}
		conn, err := coordLn.Accept()
		if err != nil {
			bootErr = fmt.Errorf("net: coordinator: %d/%d ranks joined before deadline: %w", joined, cfg.Size, err)
			break
		}
		conns = append(conns, conn)
		conn.SetDeadline(deadline)
		var h helloMsg
		if err := json.NewDecoder(bufio.NewReader(conn)).Decode(&h); err != nil {
			bootErr = fmt.Errorf("net: coordinator: bad hello: %w", err)
			break
		}
		switch {
		case h.World != cfg.World:
			bootErr = fmt.Errorf("net: coordinator: world %q joined world %q", h.World, cfg.World)
		case h.Size != cfg.Size:
			bootErr = fmt.Errorf("net: coordinator: rank %d expects size %d, world is %d", h.Rank, h.Size, cfg.Size)
		case h.Rank <= 0 || h.Rank >= cfg.Size:
			bootErr = fmt.Errorf("net: coordinator: rank %d out of range [1, %d)", h.Rank, cfg.Size)
		case addrs[h.Rank] != "":
			bootErr = fmt.Errorf("net: coordinator: duplicate rank %d (%s and %s)", h.Rank, addrs[h.Rank], h.Addr)
		default:
			addrs[h.Rank] = h.Addr
		}
		if bootErr != nil {
			break
		}
	}
	reply := tableMsg{World: cfg.World, Size: cfg.Size, Addrs: addrs}
	if bootErr != nil {
		reply = tableMsg{World: cfg.World, Size: cfg.Size, Err: bootErr.Error()}
	}
	line, _ := json.Marshal(reply)
	line = append(line, '\n')
	for _, c := range conns {
		c.SetDeadline(deadline)
		c.Write(line)
	}
	if bootErr != nil {
		return nil, bootErr
	}
	return addrs, nil
}

// register is a non-zero rank's side of the rendezvous: dial the
// coordinator (with retry — the coordinator process may not be up yet),
// announce ourselves, wait for the table.
func register(cfg Config, selfAddr string, deadline time.Time) ([]string, error) {
	conn, err := dialRetry(cfg.Coord, deadline)
	if err != nil {
		return nil, fmt.Errorf("net: rank %d: coordinator %s unreachable: %w", cfg.Rank, cfg.Coord, err)
	}
	defer conn.Close()
	conn.SetDeadline(deadline)
	hello, _ := json.Marshal(helloMsg{World: cfg.World, Rank: cfg.Rank, Size: cfg.Size, Addr: selfAddr})
	hello = append(hello, '\n')
	if _, err := conn.Write(hello); err != nil {
		return nil, fmt.Errorf("net: rank %d: hello: %w", cfg.Rank, err)
	}
	var t tableMsg
	if err := json.NewDecoder(bufio.NewReader(conn)).Decode(&t); err != nil {
		return nil, fmt.Errorf("net: rank %d: waiting for world table: %w", cfg.Rank, err)
	}
	if t.Err != "" {
		return nil, fmt.Errorf("net: rank %d: bootstrap rejected: %s", cfg.Rank, t.Err)
	}
	if t.World != cfg.World || t.Size != cfg.Size || len(t.Addrs) != cfg.Size {
		return nil, fmt.Errorf("net: rank %d: malformed world table %+v", cfg.Rank, t)
	}
	return t.Addrs, nil
}

// listenRetry binds addr, retrying address-in-use until the deadline: a
// coordinator port picked by a launcher's reserve-and-release (or left in
// use by a just-torn-down previous world) can be transiently occupied —
// typically by a short-lived ephemeral-port connection. Other bind errors
// (bad address, permissions) fail immediately.
func listenRetry(addr string, deadline time.Time) (net.Listener, error) {
	for {
		ln, err := net.Listen("tcp", addr)
		if err == nil {
			return ln, nil
		}
		if !errors.Is(err, syscall.EADDRINUSE) || !time.Now().Add(20*time.Millisecond).Before(deadline) {
			return nil, err
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// dialRetry dials addr until it answers or the deadline passes.
func dialRetry(addr string, deadline time.Time) (net.Conn, error) {
	var last error
	for {
		remain := time.Until(deadline)
		if remain <= 0 {
			if last == nil {
				last = fmt.Errorf("deadline passed")
			}
			return nil, last
		}
		step := remain
		if step > time.Second {
			step = time.Second
		}
		conn, err := net.DialTimeout("tcp", addr, step)
		if err == nil {
			return conn, nil
		}
		last = err
		time.Sleep(20 * time.Millisecond)
	}
}

// mesh wires the full pairwise mesh: rank i accepts a connection from
// every rank j > i (each announcing itself with a 4-byte rank) and dials
// every rank j < i. One duplex TCP connection serves each pair.
func (w *World) mesh(dataLn net.Listener, addrs []string, deadline time.Time) error {
	type accepted struct {
		rank int
		conn net.Conn
		err  error
	}
	expect := w.p - 1 - w.rank
	acceptCh := make(chan accepted, expect)
	if expect > 0 {
		go func() {
			for i := 0; i < expect; i++ {
				if tl, ok := dataLn.(*net.TCPListener); ok {
					tl.SetDeadline(deadline)
				}
				conn, err := dataLn.Accept()
				if err != nil {
					acceptCh <- accepted{err: fmt.Errorf("net: rank %d: mesh accept: %w", w.rank, err)}
					return
				}
				conn.SetReadDeadline(deadline)
				var hdr [4]byte
				if _, err := io.ReadFull(conn, hdr[:]); err != nil {
					conn.Close()
					acceptCh <- accepted{err: fmt.Errorf("net: rank %d: mesh hello: %w", w.rank, err)}
					return
				}
				conn.SetReadDeadline(time.Time{})
				acceptCh <- accepted{rank: int(int32(binary.LittleEndian.Uint32(hdr[:]))), conn: conn}
			}
		}()
	}
	for j := 0; j < w.rank; j++ {
		conn, err := dialRetry(addrs[j], deadline)
		if err != nil {
			return fmt.Errorf("net: rank %d: dial rank %d at %s: %w", w.rank, j, addrs[j], err)
		}
		var hdr [4]byte
		binary.LittleEndian.PutUint32(hdr[:], uint32(int32(w.rank)))
		conn.SetWriteDeadline(deadline)
		if _, err := conn.Write(hdr[:]); err != nil {
			conn.Close()
			return fmt.Errorf("net: rank %d: mesh hello to rank %d: %w", w.rank, j, err)
		}
		conn.SetWriteDeadline(time.Time{})
		w.wire.peers[j] = newPeer(j, conn)
	}
	for i := 0; i < expect; i++ {
		a := <-acceptCh
		if a.err != nil {
			return a.err
		}
		if a.rank <= w.rank || a.rank >= w.p || w.wire.peers[a.rank] != nil {
			a.conn.Close()
			return fmt.Errorf("net: rank %d: unexpected mesh hello from rank %d", w.rank, a.rank)
		}
		w.wire.peers[a.rank] = newPeer(a.rank, a.conn)
	}
	return nil
}
