package streamfreq_test

import (
	"fmt"

	"streamfreq"
)

// The most common use: bounded-memory heavy hitters over an unbounded
// stream with Space-Saving.
func ExampleNewSpaceSaving() {
	s := streamfreq.NewSpaceSaving(100) // 100 counters, ever

	// Ten heavy arrivals of item 7 among noise.
	for i := 0; i < 10; i++ {
		s.Update(7, 1)
	}
	for i := 100; i < 110; i++ {
		s.Update(streamfreq.Item(i), 1)
	}

	for _, hh := range s.Query(5) {
		fmt.Println(hh.Item, hh.Count)
	}
	// Output:
	// 7 10
}

// Constructing any of the paper's algorithms by code, provisioned for a
// threshold φ.
func ExampleNew() {
	s, err := streamfreq.New("CMH", 0.01, 42)
	if err != nil {
		panic(err)
	}
	for i := 0; i < 100; i++ {
		s.Update(3, 1)
	}
	fmt.Println(s.Name(), s.Estimate(3))
	// Output:
	// CMH 100
}

// Sketches of two streams built with the same parameters subtract,
// yielding the frequency-difference vector (the max-change primitive).
func ExampleNewCountSketch() {
	yesterday := streamfreq.NewCountSketch(5, 1024, 7)
	today := streamfreq.NewCountSketch(5, 1024, 7)

	for i := 0; i < 50; i++ {
		yesterday.Update(1, 1)
		today.Update(1, 1) // stable item
	}
	for i := 0; i < 80; i++ {
		today.Update(2, 1) // trending item
	}

	if err := today.Subtract(yesterday); err != nil {
		panic(err)
	}
	fmt.Println("change of stable item:", today.Estimate(1))
	fmt.Println("change of trending item:", today.Estimate(2))
	// Output:
	// change of stable item: 0
	// change of trending item: 80
}

// Summaries serialize to compact blobs and reconstruct with Decode —
// the distributed merge pipeline.
func ExampleDecode() {
	shard := streamfreq.NewSpaceSaving(10)
	shard.Update(streamfreq.HashString("GET /index.html"), 3)

	blob, err := shard.MarshalBinary()
	if err != nil {
		panic(err)
	}
	back, err := streamfreq.Decode(blob)
	if err != nil {
		panic(err)
	}
	fmt.Println(back.Name(), back.Estimate(streamfreq.HashString("GET /index.html")))
	// Output:
	// SSH 3
}

// String keys hash to items deterministically.
func ExampleHashString() {
	a := streamfreq.HashString("query: weather")
	b := streamfreq.HashString("query: weather")
	fmt.Println(a == b)
	// Output:
	// true
}

// Sliding-window heavy hitters: old traffic expires.
func ExampleNewWindowed() {
	w, err := streamfreq.NewWindowed(1000, 4, 50)
	if err != nil {
		panic(err)
	}
	// Item 1 is hot now...
	for i := 0; i < 1000; i++ {
		if i%2 == 0 {
			w.Update(1, 1)
		} else {
			w.Update(streamfreq.Item(100+i), 1)
		}
	}
	hotNow := w.Estimate(1) >= 400
	// ...then its traffic stops for well over one full window.
	for i := 0; i < 2000; i++ {
		w.Update(streamfreq.Item(5000+i), 1)
	}
	fmt.Println(hotNow, w.Estimate(1) <= w.Slack())
	// Output:
	// true true
}
