package exec

import (
	"fmt"
	"runtime/debug"
)

// Abort is the diagnostic record of a panic recovered by Guard: a
// sample whose execution died inside the simulator instead of producing
// a classifiable outcome.
type Abort struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack captured at recovery, empty when
	// Value is Classified. It is diagnostic-only: stacks contain
	// addresses and goroutine ids, so they must never reach report
	// tables or checkpoint journals, where byte-identical reproduction
	// is the contract.
	Stack string
}

// String renders the panic value without the nondeterministic stack.
func (a *Abort) String() string { return fmt.Sprint(a.Value) }

// Classified marks a panic value that is itself a sample's outcome —
// an emulated crash or hang raised on purpose and classified by the
// caller — rather than a simulator failure. Guard captures no stack for
// such values: nothing reads it, and the capture costs more than the
// rest of the aborted sample.
type Classified interface {
	ClassifiedAbort()
}

// Guard runs fn and converts a panic into an *Abort diagnostic (nil
// when fn returns normally). It is the ONLY recover point in the
// simulator — enforced by the panicsafety analyzer — so panic isolation
// stays a property of the execution engine instead of being scattered
// through campaign code, and a swallowed panic can never silently turn
// a simulator bug into a masked outcome. Every panic value that is not
// Classified keeps its stack.
func Guard(fn func()) (abort *Abort) {
	defer func() {
		if v := recover(); v != nil {
			mGuardPanics.Inc()
			abort = &Abort{Value: v}
			if _, ok := v.(Classified); !ok {
				abort.Stack = string(debug.Stack())
			}
		}
	}()
	fn()
	return nil
}
