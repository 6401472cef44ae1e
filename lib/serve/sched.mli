(** The job scheduler: run any {!Core.Job} to a {!Core.Report}.

    This is the single execution path behind every [inca] subcommand's
    [--json] output and every daemon request — the CLI adapters in
    [bin/inca.ml] construct a job, call {!run}, and render the outcome;
    the server does the same per protocol request.  Compiles and
    campaign baselines go through the shared {!Exec.Cache}, so a
    long-lived daemon serves repeat jobs warm.

    {!run} never raises: parse/typecheck errors, missing files, usage
    errors and internal exceptions all come back as a failure report
    with a nonzero [exit_code]. *)

(** The typed result, for callers (the CLI) that render beyond the
    report payload — e.g. [inca campaign --classes]. *)
type result =
  | R_compile of Core.Driver.compiled
  | R_check of (string * Analysis.Check.report) list
  | R_prove of (string * Analysis.Verdict.report) list
  | R_campaign of Campaign.report
  | R_mine of Mine.Rank.result
  | R_fuzz of Torture.Fuzz.report

type outcome = {
  sc_report : Core.Report.t;
  sc_text : string;  (** the human-readable rendering ("" when failed) *)
  sc_result : result option;  (** [None] when the job failed outright *)
}

(** Shared with the CLI.  [read_file] raises [Sys_error] when the file
    is missing.  [strategy_of_name] resolves a
    {!Core.Driver.all_strategies} name, ["none"] aliasing ["baseline"];
    its error names every strategy.  [apply_flags] folds NDEBUG (which
    wins: assertions stripped) and NABORT into a resolved strategy. *)
val read_file : string -> string

val strategy_of_name : string -> (string * Core.Driver.strategy, string) Stdlib.result

val apply_flags :
  nabort:bool -> ndebug:bool -> string * Core.Driver.strategy -> string * Core.Driver.strategy

(** [progress] is called on the scheduling domain, in deterministic
    order: per file (check/prove), per mutant shard (campaign), per
    scored candidate (mine).  [default_jobs] is used when the job
    leaves its [jobs] field unset (the daemon's [--jobs]). *)
val run :
  ?progress:(label:string -> data:Json.t -> unit) ->
  ?default_jobs:int ->
  Core.Job.t ->
  outcome
