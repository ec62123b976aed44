package main

import (
	"context"
	"io"
	"os"
	"strings"
	"testing"
)

func TestRunSubcommands(t *testing.T) {
	tests := []struct {
		name    string
		args    []string
		wantErr bool
	}{
		{name: "no args", args: nil, wantErr: true},
		{name: "unknown", args: []string{"bogus"}, wantErr: true},
		{name: "help", args: []string{"help"}},
		{name: "missing params", args: []string{"run", "-protocol", "xmac"}, wantErr: true},
		{name: "bad params", args: []string{"run", "-protocol", "xmac", "-params", "abc"}, wantErr: true},
		{name: "wrong arity", args: []string{"run", "-protocol", "dmac", "-params", "1"}, wantErr: true},
		{name: "scpmac rejected", args: []string{"run", "-protocol", "scpmac", "-params", "1"}, wantErr: true},
		{
			name: "short xmac run",
			args: []string{"run", "-protocol", "xmac", "-params", "0.5", "-duration", "120", "-depth", "2", "-density", "2"},
		},
		{
			name: "short lmac validation",
			args: []string{"validate", "-protocol", "lmac", "-params", "9,0.02", "-duration", "240", "-depth", "2", "-density", "2"},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := run(context.Background(), tt.args)
			if (err != nil) != tt.wantErr {
				t.Errorf("run(%v) error = %v, wantErr %v", tt.args, err, tt.wantErr)
			}
		})
	}
}

// Parameters the analytic model rejects (X-MAC Tw = 12 s) print the
// evaluation error where the comparison table would be, with -reps and
// without: the table is neither dropped silently nor computed outside
// the model's box.
func TestReplicatedValidateReportsAnalyticError(t *testing.T) { validateOutOfBox(t, "-reps", "2") }

func TestValidateReportsAnalyticError(t *testing.T) { validateOutOfBox(t) }

func validateOutOfBox(t *testing.T, extra ...string) {
	out := captureStdout(t, func() error {
		return run(context.Background(), append([]string{"validate", "-protocol", "xmac", "-params", "12",
			"-depth", "2", "-density", "2", "-duration", "200"}, extra...))
	})
	if !strings.Contains(out, "no analytic comparison: ") || !strings.Contains(out, "outside the admissible box") {
		t.Errorf("validate %v output lacks the evaluation error:\n%s", extra, out)
	}
}

// captureStdout runs f with os.Stdout redirected and returns what it
// printed, failing the test if f returns an error.
func captureStdout(t *testing.T, f func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	printed := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		printed <- b
	}()
	ferr := f()
	os.Stdout = stdout
	w.Close()
	out := <-printed
	r.Close()
	if ferr != nil {
		t.Fatal(ferr)
	}
	return string(out)
}

func TestParseParams(t *testing.T) {
	got, err := parseParams(" 1, 0.005 ")
	if err != nil {
		t.Fatalf("parseParams: %v", err)
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 0.005 {
		t.Errorf("parseParams = %v", got)
	}
	if _, err := parseParams(""); err == nil {
		t.Error("empty params accepted")
	}
	if _, err := parseParams("1,,2"); err == nil {
		t.Error("blank entry accepted")
	}
}
