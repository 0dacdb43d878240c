package dram

import (
	"testing"

	"chameleon/internal/config"
)

func TestEnergyComponents(t *testing.T) {
	d := testDevice(t)
	// 100 random accesses (row conflicts -> activations) over ~1 ms.
	rnd := uint64(1)
	now := uint64(0)
	for i := 0; i < 100; i++ {
		rnd = rnd*6364136223846793005 + 1442695040888963407
		d.Access(now, rnd%d.Capacity()&^63, i%2 == 0, 64)
		now += 36_000 // 10 us at 3.6 GHz
	}
	e := d.Energy(DefaultOffChipPower(), now)
	if e.ActivateNJ <= 0 {
		t.Error("activations consumed no energy")
	}
	if e.ReadNJ <= 0 || e.WriteNJ <= 0 {
		t.Errorf("transfer energy missing: %+v", e)
	}
	if e.RefreshNJ <= 0 {
		t.Error("refresh energy missing over many tREFI windows")
	}
	if e.BackgroundNJ <= 0 {
		t.Error("background energy missing")
	}
	if e.TotalNJ() <= e.BackgroundNJ {
		t.Error("total must exceed the background component")
	}
	if p := e.AveragePowerMW(float64(now) / 3.6e9); p <= 0 {
		t.Errorf("average power = %v", p)
	}
}

func TestEnergyScalesWithTraffic(t *testing.T) {
	light := testDevice(t)
	heavy := testDevice(t)
	now := uint64(0)
	for i := 0; i < 10; i++ {
		light.Access(now, uint64(i)<<13, false, 64)
		now += 1000
	}
	now = 0
	for i := 0; i < 1000; i++ {
		heavy.Access(now, uint64(i)<<13, false, 64)
		now += 1000
	}
	const window = 1_000_000
	el := light.Energy(DefaultOffChipPower(), window)
	eh := heavy.Energy(DefaultOffChipPower(), window)
	if eh.ReadNJ <= el.ReadNJ {
		t.Error("more traffic must cost more transfer energy")
	}
	if eh.BackgroundNJ != el.BackgroundNJ {
		t.Error("background energy must depend only on elapsed time")
	}
}

func TestIdleDeviceEnergyIsBackgroundAndRefresh(t *testing.T) {
	d := testDevice(t)
	e := d.Energy(DefaultOffChipPower(), 3_600_000) // 1 ms idle
	if e.ActivateNJ != 0 || e.ReadNJ != 0 || e.WriteNJ != 0 {
		t.Errorf("idle device charged for operations: %+v", e)
	}
	if e.BackgroundNJ <= 0 || e.RefreshNJ <= 0 {
		t.Errorf("idle device should still pay background+refresh: %+v", e)
	}
}

func TestStackedVsOffChipEnergyPerByte(t *testing.T) {
	// Streaming the same bytes must cost less I/O energy on the stacked
	// device (the premise behind HBM's efficiency).
	cfg := config.Default(256)
	f, _ := New(*cfg.Tier(0).DRAM, cfg.CPU.FreqHz)
	s, _ := New(*cfg.Tier(1).DRAM, cfg.CPU.FreqHz)
	f.Stream(0, 0, false, 1<<16, 64)
	s.Stream(0, 0, false, 1<<16, 64)
	ef := f.Energy(DefaultStackedPower(), 1_000_000)
	es := s.Energy(DefaultOffChipPower(), 1_000_000)
	if ef.ReadNJ >= es.ReadNJ {
		t.Errorf("stacked read energy (%v nJ) should undercut off-chip (%v nJ)", ef.ReadNJ, es.ReadNJ)
	}
}

func TestBusyFraction(t *testing.T) {
	d := testDevice(t)
	if d.BusyFraction(1000) != 0 {
		t.Error("idle device should report zero utilisation")
	}
	done := d.Stream(0, 0, false, 1<<20, 64)
	u := d.BusyFraction(done)
	if u <= 0.4 || u > 1.01 {
		t.Errorf("saturating stream utilisation = %v, want near 1", u)
	}
}

func TestAveragePowerZeroWindow(t *testing.T) {
	var e EnergyReport
	if e.AveragePowerMW(0) != 0 {
		t.Error("zero window must not divide by zero")
	}
}
