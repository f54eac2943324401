package main

import (
	"strings"
	"testing"

	"tracepre/internal/sample"
)

func TestSamplePlanValidation(t *testing.T) {
	cases := []struct {
		name     string
		budget   uint64
		detail   int64
		warm     int64
		targetCI float64
		wantErr  string
	}{
		{name: "auto plan", budget: 2_000_000, detail: -1, warm: -1},
		{name: "explicit lengths", budget: 2_000_000, detail: 1000, warm: 500},
		{name: "zero warm is legal", budget: 2_000_000, detail: 1000, warm: 0},
		{name: "adaptive target", budget: 2_000_000, detail: -1, warm: -1, targetCI: 0.05},
		{name: "zero budget", budget: 0, detail: -1, warm: -1, wantErr: "positive instruction budget"},
		{name: "zero detail", budget: 2_000_000, detail: 0, warm: -1, wantErr: "must be positive"},
		{name: "negative detail", budget: 2_000_000, detail: -7, warm: -1, wantErr: "must be positive"},
		{name: "negative warm", budget: 2_000_000, detail: -1, warm: -3, wantErr: "cannot be negative"},
		{name: "negative target", budget: 2_000_000, detail: -1, warm: -1, targetCI: -0.1, wantErr: "cannot be negative"},
		{name: "warm exceeds skip", budget: 2_000_000, detail: -1, warm: 70_000, wantErr: "exceeds"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p, err := sample.PlanFromFlags(c.budget, c.detail, c.warm, c.targetCI)
			if c.wantErr != "" {
				if err == nil {
					t.Fatalf("PlanFromFlags accepted %+v: %+v", c, p)
				}
				if !strings.Contains(err.Error(), c.wantErr) {
					t.Fatalf("error %q does not mention %q", err, c.wantErr)
				}
				if strings.ContainsRune(err.Error(), '\n') {
					t.Fatalf("error is not one line: %q", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("PlanFromFlags rejected %+v: %v", c, err)
			}
			if c.detail > 0 && p.Detail != uint64(c.detail) {
				t.Errorf("detail override ignored: %+v", p)
			}
			if c.warm >= 0 && p.Warm != uint64(c.warm) {
				t.Errorf("warm override ignored: %+v", p)
			}
			if p.TargetRelCI != c.targetCI {
				t.Errorf("target CI not threaded: %+v", p)
			}
			if err := p.Validate(); err != nil {
				t.Errorf("returned plan invalid: %v", err)
			}
		})
	}
}
