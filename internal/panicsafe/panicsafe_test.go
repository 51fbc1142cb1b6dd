package panicsafe

import (
	"errors"
	"strings"
	"testing"
)

func TestCallPassesThroughReturns(t *testing.T) {
	if err := Call(func() error { return nil }); err != nil {
		t.Fatalf("nil-returning fn: err = %v", err)
	}
	sentinel := errors.New("boom")
	if err := Call(func() error { return sentinel }); !errors.Is(err, sentinel) {
		t.Fatalf("error-returning fn: err = %v, want sentinel", err)
	}
}

func TestCallConvertsPanic(t *testing.T) {
	err := Call(func() error { panic("kernel exploded") })
	var pe *Error
	if !errors.As(err, &pe) {
		t.Fatalf("err = %T, want *panicsafe.Error", err)
	}
	if pe.Value != "kernel exploded" {
		t.Errorf("Value = %v, want the panic value", pe.Value)
	}
	if len(pe.Stack) == 0 || !strings.Contains(string(pe.Stack), "panicsafe") {
		t.Errorf("Stack missing or implausible: %q", pe.Stack)
	}
	if !strings.Contains(err.Error(), "kernel exploded") {
		t.Errorf("Error() does not mention the panic value: %s", err)
	}
}
