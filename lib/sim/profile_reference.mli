(** The original assoc-list availability profile, kept as an
    executable specification of {!Profile}: the property tests check
    that both engines produce identical observations on random
    operation sequences.  Same contract as {!Profile_intf.S}; see
    {!Profile} for the semantics. *)

include Profile_intf.S
