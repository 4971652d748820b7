(** The old home of the JSON codec, kept while [perf/] names it
    [Repro.Json].  Repros are [.pfis] scenarios ({!Scenario.repro}). *)

module Json = Json
