(** Domains-based parallel map.

    Jobs are dealt from an atomic counter to a fixed set of worker
    domains, and results come back in input order, so the output does
    not depend on which domain ran which job.  {!Driver.final_protocol}
    uses it to spread the final measurement runs across domains.
    Running with [domains = 1] executes the same jobs inline. *)

val map : ?domains:int -> (unit -> 'a) list -> 'a list
(** [map ~domains jobs] runs the thunks across [domains] worker
    domains (including the calling one) and returns their results in
    input order.  [domains] defaults to
    [min 4 (Domain.recommended_domain_count ())], capped at the number
    of jobs; [1] runs everything inline.  Jobs must not share mutable
    state.  The first job exception (if any) is re-raised after all
    domains are joined.
    @raise Invalid_argument if [domains < 1]. *)
