(** The one writer of the bench harness's [BENCH_*.json] snapshots.  Every
    snapshot opens with the same header ([schema_version], [kind],
    [git_sha]) and is written through {!Jsonlite.serialize} with
    [~indent:2], which escapes every string and prints every float as its
    shortest round-trip decimal. *)

val git_short_sha : unit -> string
(** [git rev-parse --short HEAD], or ["local"] outside a git checkout. *)

val document :
  schema_version:int ->
  kind:string ->
  (string * Jsonlite.t) list ->
  Jsonlite.t
(** The header, with [git_sha] from {!git_short_sha}, followed by
    [fields], in order. *)

val write : ?out:string -> suffix:string -> Jsonlite.t -> string
(** Write the document to [out], by default [BENCH_<sha><suffix>.json] in
    the current directory (so each harness, suffix ["-paper"], ["-gap"],
    ..., keeps its own file), and return the path written. *)
