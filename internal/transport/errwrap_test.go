package transport

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

// fakeTimeoutErr satisfies net.Error with Timeout() == true, standing
// in for a conn deadline overrun.
type fakeTimeoutErr struct{}

func (*fakeTimeoutErr) Error() string   { return "fake i/o timeout" }
func (*fakeTimeoutErr) Timeout() bool   { return true }
func (*fakeTimeoutErr) Temporary() bool { return true }

// The timeout wrap must keep BOTH ends of the chain matchable:
// callers hedge on errors.Is(err, ErrRequestTimeout), and operators
// debugging a stall need errors.As to reach the underlying net error.
// A %v in the wrap severs the second one silently.
func TestWrapExchangeErrPreservesCause(t *testing.T) {
	c := &Client{reqTimeout: 50 * time.Millisecond}
	cause := &fakeTimeoutErr{}
	err := c.wrapExchangeErr(fmt.Errorf("write frame: %w", cause), false, context.Background())
	if !errors.Is(err, ErrRequestTimeout) {
		t.Fatalf("err = %v, want ErrRequestTimeout in chain", err)
	}
	var ne *fakeTimeoutErr
	if !errors.As(err, &ne) {
		t.Fatalf("err = %v severs the underlying net error from the chain", err)
	}
}

func TestWrapExchangeErrCancellationWins(t *testing.T) {
	c := &Client{reqTimeout: 50 * time.Millisecond}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := c.wrapExchangeErr(&fakeTimeoutErr{}, true, ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if errors.Is(err, ErrRequestTimeout) {
		t.Fatalf("err = %v: cancellation must not be reported as a timeout", err)
	}
}

// A malformed batch response error must wrap (not flatten) the decode
// error so callers can still unwrap to the root cause.
func TestFinishBatchWrapsDecodeError(t *testing.T) {
	errs := make([]error, 2)
	(&Client{}).finishBatch([]int{0, 1}, errs, statusOK, []byte{0xff})
	for i, err := range errs {
		if err == nil {
			t.Fatalf("errs[%d] = nil, want malformed-response error", i)
		}
		if errors.Unwrap(err) == nil {
			t.Fatalf("errs[%d] = %v does not wrap the decode error", i, err)
		}
	}
}
