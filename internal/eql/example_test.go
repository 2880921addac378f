package eql_test

import (
	"fmt"
	"log"

	"github.com/everest-project/everest/internal/eql"
)

// ExampleParse shows the parsed form of an EQL statement.
func ExampleParse() {
	q, err := eql.Parse(`SELECT TOP 50 WINDOWS OF 150 FROM "Taipei-bus"
		RANK BY count(car) THRESHOLD 0.95 SAMPLE 0.1`)
	if err != nil {
		log.Fatal(err)
	}
	p := q.Predicates[0]
	fmt.Printf("top %d windows of %d from %s by %s(%s) at %.2f\n",
		q.K, q.Window, q.Sources[0].Name, p.UDF, p.Arg, q.Threshold)
	// Output:
	// top 50 windows of 150 from Taipei-bus by count(car) at 0.95
}
