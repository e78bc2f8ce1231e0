(** Vgscan: whole-image static analysis of VG32 guests.

    {!Cfg} recovers a sound whole-image control-flow graph by recursive
    traversal, {!Lint} turns the recovered facts into hostile-code
    findings, {!Report} serialises both deterministically, and
    {!Hostile} is the hostile corpus that [vgscan hostile], its golden, the
    oracle's [hostile] set and the tests read. *)

module Cfg = Cfg
module Lint = Lint
module Report = Report
module Hostile = Hostile
