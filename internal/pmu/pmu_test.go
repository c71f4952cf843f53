package pmu

import "testing"

func TestAddAndRead(t *testing.T) {
	p := New()
	p.Add(Instructions, 100)
	p.Add(Instructions, 50)
	p.Add(Cycles, 300)
	if got := p.Read(Instructions); got != 150 {
		t.Fatalf("Instructions = %v", got)
	}
	if got := p.Read(Cycles); got != 300 {
		t.Fatalf("Cycles = %v", got)
	}
	if got := p.Read(BusAccessBytes); got != 0 {
		t.Fatalf("BusAccessBytes = %v", got)
	}
}

func TestNegativeAndZeroDeltasIgnored(t *testing.T) {
	p := New()
	p.Add(Instructions, -5)
	p.Add(Instructions, 0)
	if got := p.Read(Instructions); got != 0 {
		t.Fatalf("counter moved on non-positive delta: %v", got)
	}
}

func TestInvalidCounter(t *testing.T) {
	p := New()
	p.Add(Counter(99), 5)
	if got := p.Read(Counter(99)); got != 0 {
		t.Fatalf("invalid counter read = %v", got)
	}
	if got := p.Read(Counter(-1)); got != 0 {
		t.Fatalf("invalid counter read = %v", got)
	}
}

func TestSnapshotDelta(t *testing.T) {
	p := New()
	p.Add(Instructions, 1000)
	s1 := p.Snapshot()
	p.Add(Instructions, 234)
	p.Add(BusAccessBytes, 42)
	s2 := p.Snapshot()
	if got := s2.Delta(s1, Instructions); got != 234 {
		t.Fatalf("delta = %v, want 234", got)
	}
	if got := s2.Delta(s1, BusAccessBytes); got != 42 {
		t.Fatalf("bus delta = %v, want 42", got)
	}
	if got := s2.Delta(s1, Counter(77)); got != 0 {
		t.Fatalf("invalid counter delta = %v", got)
	}
}

func TestCounterNames(t *testing.T) {
	if Instructions.String() != "instructions" || Cycles.String() != "cycles" {
		t.Fatal("counter names wrong")
	}
	if BusAccessBytes.String() != "bus-access-bytes" {
		t.Fatal("bus counter name wrong")
	}
	if Counter(42).String() != "unknown" {
		t.Fatal("unknown counter name wrong")
	}
}
