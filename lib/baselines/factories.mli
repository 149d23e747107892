(** The catalogue of register-emulation factories, each keyed by its
    [Emulation.name]: [--algo] on the command line, the umbrella's
    [Regemu.all_factories] and the claim registry all read it. *)
val all : (string * Regemu_core.Emulation.factory) list
