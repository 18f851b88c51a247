// Package gcn is a small runtime for programs written in the guarded
// command notation of Section III-A of the paper (after Dijkstra, 1974):
// actions of the form ⟨name⟩ :: ⟨guard⟩ → ⟨command⟩, a FIFO channel
// variable per process with rcv(sender, msg) guards, and timeout(timer)
// guards driven by the discrete-event simulator. The DAS, NSearch and
// SRefine protocols of Figures 2–4 are expressed as gcn programs.
//
// Execution semantics: whenever a process is stimulated (message delivery
// or timer expiry) it runs to quiescence — repeatedly executing the first
// enabled action in declaration priority order until none is enabled.
// Receive actions are enabled when the message at the head of the channel
// matches their pattern; a head message matched by no receive action is
// dropped (and counted). A per-stimulus step budget guards against
// non-terminating programs.
package gcn

import (
	"errors"
	"fmt"
	"time"

	"slpdas/internal/des"
	"slpdas/internal/topo"
)

// ErrStepBudget indicates a process failed to quiesce within its step
// budget — a protocol bug (e.g. two actions enabling each other forever).
var ErrStepBudget = errors.New("gcn: step budget exhausted; process did not quiesce")

// Message is an opaque protocol payload.
type Message any

// envelope is a queued channel entry.
type envelope struct {
	sender topo.NodeID
	msg    Message
}

// Timer is a named timer owned by a process. Set schedules expiry through
// the simulator; when it fires, the owning process is stimulated and the
// associated timeout action's guard becomes true.
type Timer struct {
	name    string
	proc    *Process
	event   des.Event
	expired bool
	// fire is the expiry body, built once at NewTimer so re-arming a timer
	// in the dissemination hot loop never allocates a fresh closure.
	fire func()
}

// Set (re-)arms the timer to fire after d, cancelling any pending expiry.
// This is the set(timer, value) command of the paper.
func (t *Timer) Set(d time.Duration) {
	t.event.Cancel()
	t.unexpire()
	t.event = t.proc.engine.sim.ScheduleAfter(d, t.fire)
}

// Stop cancels the timer without expiring it.
func (t *Timer) Stop() {
	t.event.Cancel()
	t.event = des.Event{}
	t.unexpire()
}

// unexpire clears the expired flag, keeping the owner's count exact.
func (t *Timer) unexpire() {
	if t.expired {
		t.expired = false
		t.proc.expired--
	}
}

// Expired reports whether the timer has fired and not yet been consumed.
func (t *Timer) Expired() bool { return t.expired }

// Pending reports whether the timer is armed and counting down.
func (t *Timer) Pending() bool { return t.event.Pending() }

// receiveAction is rcv⟨pattern⟩ → handle: enabled when match accepts the
// head-of-channel message (nil match accepts everything).
type receiveAction struct {
	name   string
	match  func(Message) bool
	handle func(sender topo.NodeID, msg Message)
}

// pollAction is a timeout(timer) → command action when timer is non-nil,
// else a plain guard → command action.
type pollAction struct {
	name    string
	timer   *Timer
	guard   func() bool
	command func()
}

// Process is a GCN process: an ordered action list, a channel variable and
// a set of timers. Create via Engine.NewProcess.
type Process struct {
	id     topo.NodeID // lint:immutable: identity, fixed at construction
	engine *Engine     // lint:immutable: back-pointer wiring, fixed at construction
	// inbox is the channel variable as a head-indexed queue: consumed
	// entries advance head instead of re-slicing, and once the queue
	// drains both reset to zero so the backing array is reused — Deliver
	// is allocation-free in steady state.
	inbox     []envelope
	inboxHead int
	// The process program, split by how an action is enabled and stored by
	// value in declaration order: receive actions are matched against the
	// channel head, poll actions (timeouts and plain guards) are polled
	// once the channel is empty.
	receives []receiveAction // lint:immutable: the process program, fixed at construction
	polls    []pollAction    // lint:immutable: the process program, fixed at construction
	// expired counts this process's timers that have fired and not been
	// consumed, so the poll loop loads a timer only when one has fired.
	expired int
	// Dropped counts head-of-channel messages no receive action matched.
	dropped uint64
	failed  error
	// dead marks a crashed process (fault injection): it executes no
	// actions and accepts no messages until Revive.
	dead bool
}

// ID returns the process identifier.
func (p *Process) ID() topo.NodeID { return p.id }

// Dropped returns the number of unmatched messages discarded.
func (p *Process) Dropped() uint64 { return p.dropped }

// Err returns the sticky error if the process overran its step budget.
func (p *Process) Err() error { return p.failed }

// QueueLen returns the number of undelivered messages in the channel.
func (p *Process) QueueLen() int { return len(p.inbox) - p.inboxHead }

// Fail crashes the process: its channel variable is emptied, every timer
// is disarmed, and until Revive it executes no actions and silently drops
// anything Delivered to it. Volatile state dies with the node; the action
// list — the program in ROM — survives for a later Revive.
func (p *Process) Fail() {
	p.dead = true
	for i := range p.inbox {
		p.inbox[i] = envelope{}
	}
	p.inbox = p.inbox[:0]
	p.inboxHead = 0
	for i := range p.polls {
		if t := p.polls[i].timer; t != nil {
			t.Stop()
		}
	}
}

// Revive clears the dead flag set by Fail. The caller is responsible for
// re-initialising protocol state and re-stimulating the process; the
// runtime restarts it with an empty channel and no armed timers, like a
// node rebooting from ROM.
func (p *Process) Revive() { p.dead = false }

// Dead reports whether the process is crashed (Fail without Revive).
func (p *Process) Dead() bool { return p.dead }

// Reset rewinds the process for a fresh run: the channel variable is
// emptied, drop/failure accounting cleared and every timer disarmed. The
// action list — the program — is preserved, so one wired process serves
// many runs. The owning simulator must be Reset alongside (stale timer
// events are discarded there; handles here are zeroed to match).
func (p *Process) Reset() {
	for i := range p.inbox {
		p.inbox[i] = envelope{}
	}
	p.inbox = p.inbox[:0]
	p.inboxHead = 0
	p.dropped = 0
	p.failed = nil
	p.dead = false
	p.expired = 0
	for i := range p.polls {
		if t := p.polls[i].timer; t != nil {
			t.event = des.Event{}
			t.expired = false
		}
	}
}

// AddGuard appends a plain guarded action: when guard() is true and no
// earlier action is enabled, command() runs.
func (p *Process) AddGuard(name string, guard func() bool, command func()) {
	p.polls = append(p.polls, pollAction{name: name, guard: guard, command: command})
}

// AddReceive appends a receive action rcv⟨pattern⟩ → handle. match
// inspects the head-of-channel message; nil match matches everything.
func (p *Process) AddReceive(name string, match func(Message) bool, handle func(sender topo.NodeID, msg Message)) {
	p.receives = append(p.receives, receiveAction{name: name, match: match, handle: handle})
}

// NewTimer creates a timer and appends its timeout(timer) → command action.
// The expired flag is consumed (cleared) when the action runs; the command
// may re-arm the timer with Set.
func (p *Process) NewTimer(name string, command func()) *Timer {
	t := &Timer{name: name, proc: p}
	t.fire = func() {
		// Clear the handle before stimulating: a fired event is no longer
		// armed, and the zero handle keeps Pending() honest.
		t.event = des.Event{}
		t.expired = true // Set cleared it before arming
		t.proc.expired++
		t.proc.engine.stimulate(t.proc)
	}
	p.polls = append(p.polls, pollAction{name: name, timer: t, command: command})
	return t
}

// Engine hosts processes on a simulator.
type Engine struct {
	sim        *des.Simulator // lint:immutable: simulator wiring, fixed at construction
	stepBudget int            // lint:immutable: configured budget, fixed at construction
	// OnAction, when non-nil, is invoked before every executed action —
	// a tracing hook used by tests and the debug tooling.
	// lint:immutable: observer hook owned by the caller, not run state
	OnAction func(p *Process, actionName string)
	procs    []*Process // lint:immutable: slice header fixed; processes reset individually
}

// NewEngine creates an engine. stepBudget bounds actions executed per
// stimulus per process (0 means the default of 10000).
func NewEngine(sim *des.Simulator, stepBudget int) *Engine {
	if stepBudget <= 0 {
		stepBudget = 10000
	}
	return &Engine{sim: sim, stepBudget: stepBudget}
}

// Sim returns the engine's simulator.
func (e *Engine) Sim() *des.Simulator { return e.sim }

// NewProcess creates an empty process with the given identifier.
func (e *Engine) NewProcess(id topo.NodeID) *Process {
	p := &Process{id: id, engine: e}
	e.procs = append(e.procs, p)
	return p
}

// Deliver enqueues msg from sender on p's channel variable and runs p to
// quiescence. This is how the radio hands received frames to a protocol.
//
//slp:hotpath
func (e *Engine) Deliver(p *Process, sender topo.NodeID, msg Message) {
	if p.dead {
		return
	}
	if p.inboxHead == len(p.inbox) {
		// Queue is drained: rewind so the backing array is reused.
		p.inbox = p.inbox[:0]
		p.inboxHead = 0
	}
	p.inbox = append(p.inbox, envelope{sender: sender, msg: msg})
	e.stimulate(p)
}

// Kickstart runs p to quiescence with no new stimulus — used once at boot
// so that initially-enabled actions (e.g. the sink's init) execute.
func (e *Engine) Kickstart(p *Process) { e.stimulate(p) }

// Reset rewinds every hosted process (see Process.Reset) for a fresh run
// on a Reset simulator. Processes, their action lists and the OnAction
// hook survive; only per-run channel/timer/failure state is cleared.
func (e *Engine) Reset() {
	for _, p := range e.procs {
		p.Reset()
	}
}

// Err returns the first process error encountered, if any.
func (e *Engine) Err() error {
	for _, p := range e.procs {
		if p.failed != nil {
			return p.failed
		}
	}
	return nil
}

// stimulate runs the process action loop until quiescence.
//
//slp:hotpath
func (e *Engine) stimulate(p *Process) {
	if p.failed != nil || p.dead {
		return
	}
	for steps := 0; ; steps++ {
		if steps >= e.stepBudget {
			//lint:ignore hotpath cold failure path, the process is dead after this
			p.failed = fmt.Errorf("%w (process %d, budget %d)", ErrStepBudget, p.id, e.stepBudget)
			return
		}
		if !p.stepOnce(e) {
			return
		}
	}
}

// stepOnce executes at most one enabled action; reports whether one ran.
// Consuming the channel head — whether a receive action handles it or no
// action matches and it is dropped — counts as one step, so a flood of
// unmatched messages is charged against the step budget instead of being
// discarded for free inside a single step.
//
//slp:hotpath
func (p *Process) stepOnce(e *Engine) bool {
	// Channel head first: receive actions have rcv guards that depend on
	// the head message, evaluated in declaration order.
	if p.inboxHead < len(p.inbox) {
		head := p.inbox[p.inboxHead]
		p.inbox[p.inboxHead] = envelope{} // release the message reference
		p.inboxHead++
		for i := range p.receives {
			a := &p.receives[i]
			if a.match == nil || a.match(head.msg) {
				if e.OnAction != nil {
					e.OnAction(p, a.name)
				}
				a.handle(head.sender, head.msg)
				return true
			}
		}
		// No receive action matches: the message is consumed and lost,
		// mirroring an unhandled frame in a real stack.
		p.dropped++
		return true
	}
	// Then timeout and plain guard actions in declaration order. A timeout
	// action is enabled only while its timer is expired, so with no expired
	// timer the loop skips timeouts without loading them.
	for i := range p.polls {
		a := &p.polls[i]
		if a.timer != nil {
			if p.expired == 0 || !a.timer.expired {
				continue
			}
			a.timer.expired = false // consume
			p.expired--
		} else if !a.guard() {
			continue
		}
		if e.OnAction != nil {
			e.OnAction(p, a.name)
		}
		a.command()
		return true
	}
	return false
}
