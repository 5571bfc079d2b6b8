type t = { id : int; parent : int; depth : int; name : string; dur_ms : float }
