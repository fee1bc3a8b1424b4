package sorp

import (
	"encoding/json"
	"math"
	"testing"

	"github.com/vodsim/vsp/internal/simtime"
)

func sampleVictim(heat float64) Victim {
	return Victim{
		Video:    3,
		Node:     7,
		Window:   simtime.NewInterval(simtime.Time(10*simtime.Second), simtime.Time(90*simtime.Second)),
		Heat:     heat,
		Overhead: 1.25,
	}
}

// A finite heat must encode exactly as the plain struct did before Victim
// had a MarshalJSON, also when nested in a slice the way EpochResult
// carries it.
func TestVictimFiniteHeatEncodesAsPlainStruct(t *testing.T) {
	type plain Victim
	for _, heat := range []float64{0, 1e-300, 0.5, 3, 1e21, -2.75, math.MaxFloat64} {
		v := sampleVictim(heat)
		got, err := json.Marshal([]Victim{v})
		if err != nil {
			t.Fatalf("heat %v: %v", heat, err)
		}
		want, err := json.Marshal([]plain{plain(v)})
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("heat %v: got %s, want %s", heat, got, want)
		}
		var back Victim
		if err := json.Unmarshal(got[1:len(got)-1], &back); err != nil {
			t.Fatalf("heat %v: decode: %v", heat, err)
		}
		if back != v {
			t.Errorf("heat %v: round trip gave %+v, want %+v", heat, back, v)
		}
	}
}

// A victim whose overhead is zero or negative has heat +Inf. It must
// survive an encode/decode round trip inside a reply body rather than
// make encoding/json refuse the whole reply.
func TestVictimInfiniteHeatRoundTrips(t *testing.T) {
	type reply struct {
		Victims []Victim `json:"victims"`
		Cost    float64  `json:"cost"`
	}
	for _, heat := range []float64{math.Inf(1), math.Inf(-1)} {
		in := reply{Victims: []Victim{sampleVictim(2), sampleVictim(heat)}, Cost: 9}
		b, err := json.Marshal(in)
		if err != nil {
			t.Fatalf("heat %v: encode: %v", heat, err)
		}
		var out reply
		if err := json.Unmarshal(b, &out); err != nil {
			t.Fatalf("heat %v: decode %s: %v", heat, b, err)
		}
		if len(out.Victims) != 2 || out.Victims[0] != in.Victims[0] || out.Victims[1] != in.Victims[1] || out.Cost != in.Cost {
			t.Errorf("heat %v: round trip gave %+v, want %+v", heat, out, in)
		}
	}
	v := sampleVictim(math.NaN())
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("NaN heat: encode: %v", err)
	}
	var back Victim
	if err := json.Unmarshal(b, &back); err != nil || !math.IsNaN(back.Heat) {
		t.Errorf("NaN heat: decode %s gave %v, %v", b, back.Heat, err)
	}
}

func TestVictimHeatDecodeRejectsJunk(t *testing.T) {
	var v Victim
	if err := json.Unmarshal([]byte(`{"Heat":"warm"}`), &v); err == nil {
		t.Error("a non-numeric heat string decoded without error")
	}
	if err := json.Unmarshal([]byte(`{"Video":4}`), &v); err != nil || v.Video != 4 || v.Heat != 0 {
		t.Errorf("a victim without heat decoded to %+v, %v", v, err)
	}
}
