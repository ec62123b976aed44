package edmac_test

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	edmac "github.com/edmac-project/edmac"
)

// TestSimReportEncodesIdleRun pins the encoding of a run that delivers
// nothing: its delay summaries are NaN, and both reports that carry it
// — a batch's and a single simulation's — must still marshal, with
// exactly the non-finite delays omitted.
func TestSimReportEncodesIdleRun(t *testing.T) {
	cli := newClient(t)
	s := edmac.DefaultScenario()
	run := edmac.BatchRun{Protocol: edmac.XMAC, Params: []float64{0.5}, Options: edmac.SimOptions{Duration: 60}}
	batch, err := cli.Batch(context.Background(), edmac.BatchRequest{Scenario: &s, Runs: []edmac.BatchRun{run}})
	if err != nil {
		t.Fatal(err)
	}
	if o := batch.Outcomes[0]; o.Err != nil || o.Report.Delivered != 0 {
		t.Fatalf("want an idle run, got err %v, %d delivered", o.Err, o.Report.Delivered)
	}
	single, err := cli.Simulate(context.Background(), edmac.SimulateRequest{
		Protocol: run.Protocol, Scenario: &s, Params: run.Params, Options: run.Options,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(single.Sim.MeanDelay) || !math.IsNaN(single.Sim.MaxDelay) {
		t.Fatalf("idle run has mean delay %v and max delay %v, want NaN", single.Sim.MeanDelay, single.Sim.MaxDelay)
	}
	delays := map[string]float64{
		"mean_delay": single.Sim.MeanDelay, "max_delay": single.Sim.MaxDelay,
		"p95_delay": single.Sim.P95Delay, "outer_ring_delay": single.Sim.OuterRingDelay,
	}
	for name, v := range map[string]any{"batch": batch, "simulate": single} {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("%s report does not encode: %v", name, err)
		}
		for key, d := range delays {
			finite := !math.IsNaN(d) && !math.IsInf(d, 0)
			if got := bytes.Contains(data, []byte(`"`+key+`"`)); got != finite {
				t.Errorf("%s report: %s = %v encoded %v, want %v: %s", name, key, d, got, finite, data)
			}
		}
	}
}

// TestSimReportEncodingUnchanged proves SimReport.MarshalJSON changes
// only the handling of non-finite delays: with finite values, a real
// run and a report with every field set encode exactly as the
// method-less struct does.
func TestSimReportEncodingUnchanged(t *testing.T) {
	s := equivScenario()
	single, err := newClient(t).Simulate(context.Background(), edmac.SimulateRequest{
		Protocol: edmac.XMAC, Scenario: &s, Params: []float64{0.25}, Options: edmac.SimOptions{Duration: 300},
	})
	if err != nil {
		t.Fatal(err)
	}
	if single.Sim.Delivered == 0 {
		t.Fatal("run delivered nothing: its delays are not finite")
	}
	full := edmac.SimReport{}
	v := reflect.ValueOf(&full).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(i + 1))
		case reflect.Uint64:
			f.SetUint(uint64(i + 1))
		case reflect.Float64:
			f.SetFloat(float64(i) + 0.5)
		case reflect.String:
			f.SetString("xmac")
		case reflect.Slice:
			f.Set(reflect.ValueOf([]float64{0.25, 4}))
		default:
			t.Fatalf("field %s: kind %s not covered", v.Type().Field(i).Name, f.Kind())
		}
	}
	type plain edmac.SimReport // same fields and tags, no MarshalJSON
	for name, rep := range map[string]edmac.SimReport{"run": single.Sim, "every field set": full} {
		want, err := json.Marshal(plain(rep))
		if err != nil {
			t.Fatal(err)
		}
		if got := asJSON(t, rep); !bytes.Equal(got, want) {
			t.Errorf("%s: encoding moved\ngot  %s\nwant %s", name, got, want)
		}
	}
}
