package eval

import "testing"

// Figure 4's rows are a pure function of the configuration: each method
// draws its medians from its own source split off cfg.Seed. These values
// pin those draws at a reduced scale, so a change to how a method's stream
// is derived, or to what a median consumes from it, changes a rank error
// here. The paper's per-level ε leaves SS and SSs outside the data (100%) at
// this size, so a second, larger ε gives every method a draw-sensitive row.
func TestFigure4Draws(t *testing.T) {
	type cell struct {
		method  string
		depth   int
		rankErr float64
	}
	paper := PaperFigure4
	paper.Values, paper.Depths = 1<<12, 4
	large := paper
	large.Eps, large.SampleRate = 0.3, 0.5
	cases := []struct {
		name string
		cfg  Figure4Config
		want []cell
	}{
		{"paper-eps", paper, []cell{
			{"EM", 0, 0.048828125},
			{"EM", 1, 8.93822568724221},
			{"EM", 2, 18.52244441135854},
			{"EM", 3, 16.839346457749468},
			{"SS", 0, 100},
			{"SS", 1, 100},
			{"SS", 2, 100},
			{"SS", 3, 100},
			{"EMs", 0, 11.81640625},
			{"EMs", 1, 3.9399017385647848},
			{"EMs", 2, 19.7420311044303},
			{"EMs", 3, 24.855594205901404},
			{"SSs", 0, 100},
			{"SSs", 1, 100},
			{"SSs", 2, 100},
			{"SSs", 3, 100},
			{"NM", 0, 3.8330078125},
			{"NM", 1, 6.390912437599754},
			{"NM", 2, 31.437904287079512},
			{"NM", 3, 39.85956186734588},
			{"cell", 0, 0.7568359375},
			{"cell", 1, 0.6826415106038309},
			{"cell", 2, 0.8178077748113272},
			{"cell", 3, 0.7498903275499749},
		}},
		{"eps-0.3", large, []cell{
			{"EM", 0, 0},
			{"EM", 1, 0.29296875},
			{"EM", 2, 0.7334025349296284},
			{"EM", 3, 1.1269537052289424},
			{"SS", 0, 3.5400390625},
			{"SS", 1, 62.07304256437205},
			{"SS", 2, 50.902075710223585},
			{"SS", 3, 63.63614887356914},
			{"EMs", 0, 0.78125},
			{"EMs", 1, 0.36515567765567764},
			{"EMs", 2, 1.9043698499946244},
			{"EMs", 3, 3.867459154435081},
			{"SSs", 0, 7.5439453125},
			{"SSs", 1, 4.428783580066765},
			{"SSs", 2, 53.71183764927559},
			{"SSs", 3, 42.28262550624106},
			{"NM", 0, 0.5126953125},
			{"NM", 1, 0.586750210963019},
			{"NM", 2, 1.2283698678954709},
			{"NM", 3, 1.0088946418083804},
			{"cell", 0, 0.7080078125},
			{"cell", 1, 0.6338555985828419},
			{"cell", 2, 0.8663837227131078},
			{"cell", 3, 0.7732080995020776},
		}},
	}
	for _, c := range cases {
		rows, err := Figure4(c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(rows) != len(c.want) {
			t.Fatalf("%s: %d rows, want %d", c.name, len(rows), len(c.want))
		}
		for i, r := range rows {
			w := c.want[i]
			if r.Method != w.method || r.Depth != w.depth || r.RankErr != w.rankErr {
				t.Errorf("%s row %d: {%q, %d, %v}, want {%q, %d, %v}",
					c.name, i, r.Method, r.Depth, r.RankErr, w.method, w.depth, w.rankErr)
			}
		}
	}
}
