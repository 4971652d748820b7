(* Automatic test generation (the paper's future work, §6): a protocol
   specification is turned into a systematic campaign of generated
   filter scripts, run against the alternating-bit protocol — once
   against the correct implementation, once against one with a
   re-implanted bug (the sender ignores the ACK's bit).

   Run with:  dune exec examples/generated_campaign.exe *)

open Pfi_testgen

let () =
  print_endline "== generated fault campaign for the ABP specification ==\n";
  print_endline "one of the generated scripts (drop the first 5 MSG frames):";
  print_endline (Generator.script_of_fault (Generator.Drop_first ("MSG", 5)));

  print_endline "--- correct implementation ---";
  let campaign h = (Campaign.run (Campaign.plan h)).Campaign.s_outcomes in
  let ok = campaign (Abp_harness.harness ()) in
  print_string (Campaign.table ok);

  print_endline "\n--- implementation with the ignore-ack-bit bug ---";
  let buggy = campaign (Abp_harness.harness ~bug_ignore_ack_bit:true ()) in
  (* print only the interesting rows *)
  let bad = Campaign.violations buggy in
  print_string (Campaign.table bad);
  if bad <> [] then
    print_endline
      "\nthe campaign found the implanted defect: under an arbitrary\n\
       (byzantine) channel a stale duplicate ACK makes the buggy sender\n\
       abandon an in-flight frame, which a coinciding drop then loses."
