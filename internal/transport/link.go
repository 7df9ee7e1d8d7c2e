package transport

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"naspipe/internal/backoff"
	"naspipe/internal/fault"
	"naspipe/internal/telemetry"
)

// ErrNotConnected is returned when an unsequenced frame (heartbeat,
// handshake) is offered while the link has no live connection. Such
// frames are fire-and-forget; callers drop or retry them at their own
// cadence rather than queueing them here.
var ErrNotConnected = fmt.Errorf("transport: link not connected")

// LinkConfig configures one reliable link.
type LinkConfig struct {
	Local int // our stage address, stamped on acks
	Peer  int // peer stage address: fault-site and telemetry attribution

	// Redial reopens the connection after a cut. Nil makes this the
	// accept side of the link: it waits for the peer to redial and the
	// owner to Attach the fresh connection.
	Redial func(ctx context.Context) (net.Conn, error)

	// Backoff paces the redial loop. The zero value selects the same
	// defaults the fault plane retries with (2ms base, 100ms cap) —
	// small enough that an injected cut heals well inside a heartbeat
	// deadline.
	Backoff backoff.Policy

	// Injector enables transport-fault injection on this link's send
	// side (frame drops, cuts). Nil is a clean link. Faults apply to a
	// frame's first transmission only — retransmissions always go
	// through, otherwise a deterministic drop would kill the same
	// seqno forever.
	Injector *fault.Injector

	Tel      *telemetry.Bus
	InboxCap int // delivery channel depth (default 256)
}

// Link is one end of a reliable stage-to-stage connection. Sequenced
// frames get a monotonic link seqno, stay buffered until cumulatively
// acked, survive reconnects via go-back-N retransmission, and are
// deduplicated on the receive side, so the consumer observes exactly-
// once, in-order delivery no matter how often the wire dies under it.
// Unsequenced frames (heartbeats, handshake, acks) bypass all of that.
//
// Only the writer goroutine writes to the link's sockets: Send, the
// go-back-N and the backstop queue encoded frames on out, and the reader
// only queues an ack or marks one due, so neither end's reader can block
// on the other.
//
// Acks are deferred: a cumulative ack rides the next data batch, and
// with nothing to send it waits until ackEvery in-order frames are due
// or ackDelay has passed on the one ack timer, armed only while an ack
// waits. An ack for a discarded frame — the duplicate that starts the
// peer's go-back-N — goes out at once.
type Link struct {
	cfg      LinkConfig
	ctx      context.Context
	cancel   context.CancelFunc
	in       chan Frame
	wake     chan struct{} // capacity 1: the writer has something to look at
	ackTimer *time.Timer   // the deferred ack's deadline; read by the writer
	wg       sync.WaitGroup

	mu           sync.Mutex
	conn         net.Conn
	gen          int     // connection generation; stale readers exit
	out          []byte  // encoded frames queued for conn, in send order
	ackDue       bool    // a sequenced frame arrived since the last ack was queued
	dupAckDue    bool    // and one of them was discarded (duplicate or post-gap)
	ackArmed     bool    // ackTimer runs and its tick is not yet taken
	ackLate      bool    // a due ack has waited ackDelay: the writer sends it alone
	ackQueued    uint64  // the cursor the last queued ack carried
	nextSeq      uint64  // last data seqno assigned
	acked        uint64  // peer's cumulative ack
	unacked      []Frame // frames in (acked, nextSeq]
	sentData     uint64  // first transmissions offered: the "after N frames" fault site
	recvSeq      uint64  // last in-order data seqno delivered (dedup cursor)
	lastProgress time.Time
	closed       bool
}

// retransmitAfter is the backstop: if the unacked window has made no
// progress for this long (a dropped tail frame generates no duplicate
// ack to trigger go-back-N), the window is re-sent wholesale.
const retransmitAfter = 40 * time.Millisecond

// The deferred-ack bounds: with nothing to send, a receiver acks once
// ackEvery in-order frames are due or the oldest has waited ackDelay,
// far inside retransmitAfter, so a quiet receiver never trips the
// sender's backstop and a one-way flood keeps the sender's window
// within ackEvery frames of what is still on the wire.
const (
	ackEvery = 32
	ackDelay = time.Millisecond
)

// NewLink returns an unconnected link. Dial-side links call Connect;
// accept-side links wait for Attach.
func NewLink(cfg LinkConfig) *Link {
	l := newLink(cfg)
	l.wg.Add(1)
	go l.writer()
	return l
}

// newLink builds a link without its writer goroutine.
func newLink(cfg LinkConfig) *Link {
	if cfg.InboxCap <= 0 {
		cfg.InboxCap = 256
	}
	if cfg.Backoff == (backoff.Policy{}) {
		cfg.Backoff = backoff.Policy{Base: 2 * time.Millisecond, Max: 100 * time.Millisecond}
	}
	ctx, cancel := context.WithCancel(context.Background())
	l := &Link{
		cfg:          cfg,
		ctx:          ctx,
		cancel:       cancel,
		in:           make(chan Frame, cfg.InboxCap),
		wake:         make(chan struct{}, 1),
		ackTimer:     time.NewTimer(time.Hour),
		lastProgress: time.Now(),
	}
	l.ackTimer.Stop()
	return l
}

// In returns the delivery channel: deduplicated in-order sequenced
// frames plus control frames, in arrival order. Closed by Close.
func (l *Link) In() <-chan Frame { return l.in }

// Connect performs the initial dial (dial-side links only), retrying
// with backoff until the context dies.
func (l *Link) Connect(ctx context.Context) error {
	if l.cfg.Redial == nil {
		return fmt.Errorf("transport: Connect on an accept-side link")
	}
	for attempt := 0; ; attempt++ {
		conn, err := l.cfg.Redial(ctx)
		if err == nil {
			l.Attach(conn)
			return nil
		}
		if serr := l.cfg.Backoff.Sleep(ctx, attempt); serr != nil {
			return fmt.Errorf("transport: dialing peer %d: %w (last: %v)", l.cfg.Peer, serr, err)
		}
	}
}

// Attach adopts a fresh connection: any previous connection is closed,
// bytes queued for it are dropped, the unacked window is queued for
// retransmission, and a reader is spawned. The accept side calls this
// when the peer redials after a cut.
func (l *Link) Attach(conn net.Conn) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		conn.Close()
		return
	}
	if l.conn != nil {
		l.conn.Close()
	}
	l.conn = conn
	l.gen++
	// A batch goes only to the connection it was built for: whatever was
	// queued for the dead one is either in the unacked window, queued
	// again just below, or unsequenced and best-effort.
	l.out = l.out[:0]
	l.ackDue, l.dupAckDue, l.ackLate = false, false, false
	l.retransmitLocked()
	l.wg.Add(1)
	go l.reader(conn, l.gen)
}

// Send queues a frame for the writer and never waits on the wire.
// Sequenced frames are assigned the next link seqno (overwriting f.Seq),
// buffered, and guaranteed to arrive exactly once even across cuts;
// transient wire failures are absorbed because the retransmit machinery
// owns recovery. Unsequenced frames are best-effort: ErrNotConnected is
// the caller's to ignore, and a frame queued on a connection that dies
// before the writer reaches it is lost.
func (l *Link) Send(f Frame) error {
	if err := checkPayload(f); err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if !f.Type.Sequenced() {
		if l.conn == nil {
			return ErrNotConnected
		}
		l.queueLocked(f)
		return nil
	}
	l.nextSeq++
	f.Seq = l.nextSeq
	if len(l.unacked) == 0 {
		// The stall clock measures how long a frame has waited for its
		// ack, not how long the link sat idle before the frame was sent.
		l.lastProgress = time.Now()
	}
	l.unacked = append(l.unacked, f)
	l.sentData++
	inj := l.cfg.Injector
	if inj != nil && inj.FrameDrop(l.cfg.Peer, f.Seq) {
		// First transmission suppressed; go-back-N or the backstop
		// recovers it. Still counts toward the cut site below.
		l.emit(telemetry.OpLinkDrop, int64(f.Seq))
	} else {
		l.emit(telemetry.OpLinkSend, int64(f.Seq))
		if l.conn != nil {
			l.queueLocked(f)
		}
	}
	if inj != nil && l.conn != nil && inj.LinkCut(l.cfg.Peer, l.sentData) {
		l.emit(telemetry.OpLinkCut, int64(l.sentData))
		l.conn.Close() // the reader notices and heals it
	}
	return nil
}

// Close tears the link down: senders get ErrClosed, frames still queued
// are dropped, the readers and the writer exit, and the delivery channel
// is closed after they drain.
func (l *Link) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	if l.conn != nil {
		l.conn.Close()
		l.conn = nil
	}
	l.out = nil
	l.mu.Unlock()
	l.cancel()
	l.wg.Wait()
	l.ackTimer.Stop()
	close(l.in)
	return nil
}

// reader drains one connection generation, handling acks and dedup
// inline and delivering everything else. It never writes. On a wire
// error the dial side heals the link in place; the accept side exits
// and waits for Attach.
func (l *Link) reader(conn net.Conn, gen int) {
	defer l.wg.Done()
	fr := &frameReader{r: bufio.NewReader(conn)}
	for {
		f, err := fr.next()
		if err != nil {
			l.connErr(conn, gen)
			return
		}
		switch {
		case f.Type == FrameAck:
			l.handleAck(f.Seq)
		case f.Type.Sequenced():
			if l.accept(f) {
				l.deliver(f)
			}
		default:
			l.deliver(f)
		}
	}
}

// accept runs receive-side reliability for one sequenced frame: exactly
// the next expected seqno is delivered; duplicates and post-gap frames
// are discarded. Either way an ack of the cumulative cursor becomes due.
// A discarded frame makes that ack a duplicate, which triggers the
// sender's go-back-N, so the writer is woken to send it now (coalescing
// every ack due since its last pass into one). An in-order frame's ack
// is deferred: the reader queues it itself once ackEvery frames are
// due, and otherwise arms the ack timer, unless the next data batch
// carries it first.
func (l *Link) accept(f Frame) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ackDue = true
	if f.Seq != l.recvSeq+1 {
		l.dupAckDue = true
		l.kick()
		return false
	}
	l.recvSeq = f.Seq
	l.emit(telemetry.OpLinkRecv, int64(f.Seq))
	switch {
	case l.recvSeq-l.ackQueued >= ackEvery:
		l.queueAckLocked()
		l.kick()
	case !l.ackArmed:
		l.ackArmed = true
		l.ackTimer.Reset(ackDelay)
	}
	return true
}

// ackDeadline is the writer's half of the ack timer: the timer has
// fired, so whatever ack is due now goes out even with no data to carry
// it.
func (l *Link) ackDeadline() {
	l.mu.Lock()
	l.ackArmed = false
	l.ackLate = l.ackDue
	l.mu.Unlock()
}

func (l *Link) handleAck(seq uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if seq > l.acked {
		drop := int(seq - l.acked)
		if drop > len(l.unacked) {
			drop = len(l.unacked)
		}
		l.unacked = l.unacked[drop:]
		l.acked = seq
		l.lastProgress = time.Now()
		return
	}
	// Duplicate ack: the peer saw a gap. Go back N.
	if len(l.unacked) > 0 {
		l.retransmitLocked()
	}
}

// retransmitLocked queues the whole unacked window again (go-back-N).
func (l *Link) retransmitLocked() {
	if l.conn == nil || len(l.unacked) == 0 {
		return
	}
	l.emit(telemetry.OpLinkRetransmit, int64(len(l.unacked)))
	for _, f := range l.unacked {
		l.out = AppendFrame(l.out, f)
	}
	l.kick()
	l.lastProgress = time.Now()
}

// queueLocked encodes f onto the writer's queue.
func (l *Link) queueLocked(f Frame) {
	l.out = AppendFrame(l.out, f)
	l.kick()
}

// kick wakes the writer; a wake-up already pending covers this one.
func (l *Link) kick() {
	select {
	case l.wake <- struct{}{}:
	default:
	}
}

// connErr handles a dead connection observed by generation gen's
// reader. Stale generations (already superseded by Attach) are ignored.
func (l *Link) connErr(conn net.Conn, gen int) {
	conn.Close()
	l.mu.Lock()
	if l.closed || gen != l.gen || l.conn != conn {
		l.mu.Unlock()
		return
	}
	l.conn = nil
	redial := l.cfg.Redial
	l.mu.Unlock()
	if redial == nil {
		return // accept side: the peer redials, the owner Attaches
	}
	for attempt := 0; ; attempt++ {
		if l.cfg.Backoff.Sleep(l.ctx, attempt) != nil {
			return
		}
		c, err := redial(l.ctx)
		if err != nil {
			continue
		}
		l.emit(telemetry.OpLinkReconnect, int64(attempt))
		l.Attach(c)
		return
	}
}

// deliver hands a frame to the consumer, giving up only on shutdown.
func (l *Link) deliver(f Frame) {
	select {
	case l.in <- f:
	case <-l.ctx.Done():
	}
}

// writer is the only goroutine that writes to the link's sockets, for
// the life of the link. Each pass writes everything queued for the
// current connection with one Write and no lock held, and loops until
// the queue is empty. It also runs the backstop, which retransmits a
// stalled unacked window: a dropped tail frame produces no out-of-order
// arrival at the peer, hence no duplicate ack, so timer-driven recovery
// is the only way it ever lands.
func (l *Link) writer() {
	defer l.wg.Done()
	t := time.NewTicker(retransmitAfter / 2)
	defer t.Stop()
	var batch []byte
	for {
		select {
		case <-l.ctx.Done():
			return
		case <-l.wake:
		case <-l.ackTimer.C:
			l.ackDeadline()
		case <-t.C:
			l.mu.Lock()
			if !l.closed && len(l.unacked) > 0 && time.Since(l.lastProgress) > retransmitAfter {
				l.retransmitLocked()
			}
			l.mu.Unlock()
		}
		for {
			var conn net.Conn
			if conn, batch = l.takeBatch(batch[:0]); conn == nil {
				break
			}
			if _, err := conn.Write(batch); err != nil {
				conn.Close() // the reader notices and heals it
			}
		}
	}
}

// takeBatch hands the writer the queued bytes and the connection they
// were queued for, first appending one cumulative ack if one is due and
// may go now — with data to ride on, for a discard, or past its
// deadline — and gives the queue the writer's spent buffer in exchange.
// A nil connection means there is nothing to write; buf comes back
// unused.
func (l *Link) takeBatch(buf []byte) (net.Conn, []byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.conn == nil {
		// No peer to reach: what is queued is in the unacked window
		// (Attach queues it again) or best-effort.
		l.out = l.out[:0]
		l.ackDue, l.dupAckDue, l.ackLate = false, false, false
		return nil, buf
	}
	if l.ackDue && (len(l.out) > 0 || l.dupAckDue || l.ackLate) {
		l.queueAckLocked()
	}
	if len(l.out) == 0 {
		return nil, buf
	}
	batch := l.out
	l.out = buf
	return l.conn, batch
}

// queueAckLocked queues one cumulative ack of the receive cursor.
func (l *Link) queueAckLocked() {
	ack := Frame{Type: FrameAck, From: l.cfg.Local, To: l.cfg.Peer, Seq: l.recvSeq}
	if l.dupAckDue && l.ackQueued != l.recvSeq {
		// The cursor moved and a frame was discarded since the last
		// ack: announce the cursor twice so the second copy reads as
		// the duplicate ack that starts the peer's go-back-N.
		l.out = AppendFrame(l.out, ack)
	}
	l.out = AppendFrame(l.out, ack)
	l.ackQueued = l.recvSeq
	l.ackDue, l.dupAckDue, l.ackLate = false, false, false
}

// emit publishes a link event attributed to the peer stage.
func (l *Link) emit(op telemetry.Op, arg int64) {
	l.cfg.Tel.Emit(telemetry.Event{
		Op: op, Stage: int32(l.cfg.Peer), Worker: telemetry.WorkerStage,
		Subnet: -1, Kind: telemetry.KindNone, Arg: arg,
	})
}
