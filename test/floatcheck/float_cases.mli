(** Inputs and oracle for the canonical float formatter
    ({!Manet_obs.Json.float_str}). *)

val reference : float -> string
(** The formatter's specification, through [Printf]: [%.1f] for integral
    values below 1e15 in magnitude, [%.12g] for everything else. *)

val draw : Random.State.t -> float
(** One finite input, either sign, from four equally likely families:
    random bit patterns; simulated clock readings; values within 3 ulps
    of a 12-digit rounding tie [(d + 1/2) * 10^-e], [e] in [0, 15]; and
    values within 3 ulps of 0, the smallest subnormal and normal, 1, and
    the formatter's boundaries 1e-4, 1e11 and 1e15.  Usable directly as
    a [QCheck.Gen.t]. *)
